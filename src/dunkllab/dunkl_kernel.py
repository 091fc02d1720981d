"""The rank-1 Dunkl kernel E_k and its sign-flip product extension.

E_k restricted to one coordinate pair depends only on the product w = x*z and
solves T f = z f, f(0) = 1.  It is reached through one vectorized evaluator
per axis and nothing else:

* Bessel-J closed form for purely imaginary argument, at every |w|
  (``kernel_imag_parts``, with ``kernel_imag_outer`` for outer products);
* Bessel-I closed form for real argument (heat-kernel side), exponentially
  scaled against overflow (``kernel_real_scaled``).

For Z2^N products, E(x, z) = prod_d E_{k_d}(x_d z_d): ``kernel_imag_batch``
forms it for z = i xi, and ``kernels.heat_kernel_two_point`` for real z.

Large batches run on every core.  ``kernel_imag_parts`` and
``kernel_real_scaled`` cut a C-contiguous batch of at least
``SPLIT_MIN_VALUES`` values into one contiguous piece per core (``on_cores``)
and evaluate each piece with the serial evaluator into its slice of
preallocated outputs.  The calling thread takes the first piece, and one
process-wide ``ThreadPoolExecutor`` the others: it is made on first use,
with one thread per core this process may run on (``os.sched_getaffinity``)
less the caller's, and no more, since every extra thread keeps a malloc
arena of its own.  scipy's special functions and ``np.einsum`` release the
GIL, so the pieces overlap.  The bits cannot move: every value
is computed by the same elementwise operations from its own argument alone,
whichever piece holds it.  The point sums of ``transform`` split over
blocks of points the same way, and each point's sum reads that point's rows
alone.  With one core, or below the split size, or inside a pool thread
(which never submits to the pool), the whole batch runs serially in the
calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import gamma, hyp0f1, ive, jv

from .root_systems import RootSystemSpec, as_points

#: |w| below which the hypergeometric series is used instead of Bessel forms
#: (avoids the 0*inf limit of the closed form at w = 0).
SMALL_ARG_LIMIT = 0.5
#: batches of at least this many values are split across the cores, and
#: evaluated in blocks of this many; on 2 vCPUs a split of 1000 values was
#: slower than none, and one of 4000 about 20% faster
SPLIT_MIN_VALUES = 8192

_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()
_POOL_THREAD = threading.local()


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # each pool thread marks itself busy, so it never submits
            _POOL = ThreadPoolExecutor(
                max_workers=max(_cores() - 1, 1),
                thread_name_prefix="dunkllab-split",
                initializer=setattr, initargs=(_POOL_THREAD, "busy", True))
        return _POOL


def _forget_pool() -> None:
    """In a forked child: the pool's threads stayed in the parent, so a
    task submitted to it would never run; the child makes its own."""
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def on_cores(n: int, task, min_size: int) -> None:
    """Run ``task(lo, hi)`` over [0, n) in one contiguous piece per core
    when n >= ``min_size``, the calling thread taking the first piece and
    the process-wide pool the others; else, with one core, or in a pool
    thread, as ``task(0, n)`` in the calling thread.  Returns when every
    piece has ended."""
    cores = _cores()
    if cores == 1 or n < min_size or getattr(_POOL_THREAD, "busy", False):
        task(0, n)
        return
    cuts = [n * i // cores for i in range(cores + 1)]
    pending = [_pool().submit(task, lo, hi)
               for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        task(cuts[0], cuts[1])
    finally:
        wait(pending)
    for piece in pending:
        piece.result()


def _on_cores_flat(task, *arrays) -> None:
    """``task(*blocks)`` over aligned blocks of at most ``SPLIT_MIN_VALUES``
    values of the flattened ``arrays``, the pieces of ``on_cores`` cut into
    blocks, when the first is C-contiguous (the others, made like it, are
    too); else once on the arrays as they are.  The blocks keep each
    temporary of an evaluation small, in the caller and in the pool threads
    alike."""
    if not arrays[0].flags.c_contiguous:
        task(*arrays)
        return
    flat = [a.reshape(-1) for a in arrays]

    def piece(lo: int, hi: int) -> None:
        for start in range(lo, hi, SPLIT_MIN_VALUES):
            stop = min(start + SPLIT_MIN_VALUES, hi)
            task(*(a[start:stop] for a in flat))

    on_cores(arrays[0].size, piece, SPLIT_MIN_VALUES)


def kernel_imag_parts(u, k: float):
    """Real and imaginary parts of E_k(i u) for real u, vectorized.

    Even/odd closed forms:
        Re = Gamma(k+1/2) (|u|/2)^{1/2-k} J_{k-1/2}(|u|)
        Im = sign(u) |u|/(2k+1) Gamma(k+3/2) (|u|/2)^{-1/2-k} J_{k+1/2}(|u|)
    with the hypergeometric series taking over near u = 0.
    """
    u = np.asarray(u, dtype=float)
    # |u| is allocated before the outputs: the order of large allocations
    # sets how much freed memory malloc keeps (outputs first raised
    # rank2-grid's peak RSS by 14 MB)
    au = np.abs(u)
    re = np.empty_like(au)
    im = np.empty_like(au)
    _on_cores_flat(lambda *blocks: _imag_parts_into(*blocks, k), u, au, re,
                   im)
    return re, im


def _imag_parts_into(u: np.ndarray, au: np.ndarray, re: np.ndarray,
                     im: np.ndarray, k: float) -> None:
    """``kernel_imag_parts(u, k)`` written into ``re`` and ``im``, in the
    calling thread, given ``au`` = |u|."""
    small = au < SMALL_ARG_LIMIT
    if np.any(small):
        z = -0.25 * au[small] ** 2
        re[small] = hyp0f1(k + 0.5, z)
        im[small] = au[small] / (2.0 * k + 1.0) * hyp0f1(k + 1.5, z)
    big = ~small
    if np.any(big):
        ub = au[big]
        re[big] = gamma(k + 0.5) * (ub / 2.0) ** (0.5 - k) * jv(k - 0.5, ub)
        im[big] = (ub / (2.0 * k + 1.0) * gamma(k + 1.5)
                   * (ub / 2.0) ** (-0.5 - k) * jv(k + 0.5, ub))
    im *= np.sign(u)


def kernel_imag_outer(x, nodes, k: float):
    """``kernel_imag_parts(np.outer(x, nodes), k)`` bit for bit, from one
    evaluation per distinct |x_i| |nodes_j|.

    Both parts are functions of |u| up to the sign of Im, and
    |x_i nodes_j| = |x_i| |nodes_j| exactly; the sign of u = x_i nodes_j is
    applied to Im afterwards, as ``kernel_imag_parts`` applies it.
    """
    x = np.asarray(x, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    ax, rows = np.unique(np.abs(x), return_inverse=True)
    an, cols = np.unique(np.abs(nodes), return_inverse=True)
    re, im = kernel_imag_parts(np.outer(ax, an), k)
    cells = np.ix_(rows.ravel(), cols.ravel())
    re, im = re[cells], im[cells]
    im *= np.sign(np.outer(x, nodes))
    return re, im


def kernel_real_scaled(v, k: float):
    """E_k(v) * exp(-|v|) for real v, vectorized and overflow-free.

    Closed form with exponentially scaled modified Bessel functions:
        even = Gamma(k+1/2) (|v|/2)^{1/2-k} ive(k-1/2, |v|)
        odd  = sign(v) |v|/(2k+1) Gamma(k+3/2) (|v|/2)^{-1/2-k} ive(k+1/2, |v|)
    """
    v = np.asarray(v, dtype=float)
    av = np.abs(v)
    out = np.empty_like(av)
    _on_cores_flat(lambda *blocks: _real_scaled_into(*blocks, k), v, av, out)
    return out


def _real_scaled_into(v: np.ndarray, av: np.ndarray, out: np.ndarray,
                      k: float) -> None:
    """``kernel_real_scaled(v, k)`` written into ``out``, in the calling
    thread, given ``av`` = |v|."""
    even = np.empty_like(av)
    odd = np.empty_like(av)
    small = av < SMALL_ARG_LIMIT
    if np.any(small):
        z = 0.25 * av[small] ** 2
        damp = np.exp(-av[small])
        even[small] = hyp0f1(k + 0.5, z) * damp
        odd[small] = av[small] / (2.0 * k + 1.0) * hyp0f1(k + 1.5, z) * damp
    big = ~small
    if np.any(big):
        vb = av[big]
        even[big] = gamma(k + 0.5) * (vb / 2.0) ** (0.5 - k) * ive(k - 0.5, vb)
        odd[big] = (vb / (2.0 * k + 1.0) * gamma(k + 1.5)
                    * (vb / 2.0) ** (-0.5 - k) * ive(k + 0.5, vb))
    np.add(even, np.sign(v) * odd, out=out)


def kernel_imag_batch(system: RootSystemSpec, xi_pts: np.ndarray,
                      x_pts: np.ndarray) -> np.ndarray:
    """E(i xi, x) for each pair of points (``as_points``; one point
    broadcasts against a batch), as a complex array."""
    xi_pts, x_pts = np.broadcast_arrays(as_points(xi_pts, system.dim),
                                        as_points(x_pts, system.dim))
    ks = system.ks
    out = np.ones(len(xi_pts), dtype=complex)
    for d in range(system.dim):
        re, im = kernel_imag_parts(xi_pts[:, d] * x_pts[:, d], ks[d])
        out *= re + 1j * im
    return out

