"""Dunkl transform, inverse, Plancherel diagnostics, Dunkl convolution.

Forward:  F f(xi) = c_k^{-1} int E(-i xi, x) f(x) dw(x)
Inverse:  F^{-1} g(x) = c_k^{-1} int E(i xi, x) g(xi) dw(xi)

Both sides use the tensor quadrature grids of the WeightedContext.  For
product systems E factors per coordinate, so the transform is one matrix
product per axis, with the quadrature weights folded into the matrix:

    forward   conj(E) * w_x     E[a, b] = E(i xi_a x_b)
    inverse   E.T * w_xi        (E(i x_a xi_b) = E(i xi_b x_a), products commute)

Every axis rule is mirrored (nodes = concat(-x[::-1], x)), and on the
imaginary axis Re E(iu) is even and Im E(iu) is odd.  So E is determined
by its positive quadrant: the other three quadrants are that quadrant
reversed, conjugated where one factor is negative.  The rank-one kernel
is evaluated once per quadrant entry and per (frequency rule, spatial
rule) pair, and that one evaluation gives both operators, bit-identical
to evaluating every entry of each.

Row -a of each weighted operator is then the conjugate of row a, bit for
bit.  The cache (the dominant memory object) holds only the rows of the
non-negative nodes of each operator, the "half", in C order and under a
byte cap; the raw E is not kept.  Each product forms the negative rows
from the half:

* in 1-D, row -a of op @ v is conj(row a of half @ conj(v)).  That is
  the whole product's row bit for bit, except where its imaginary part
  is exactly zero: the sums of the negated terms give +0, conjugated to
  -0, where the whole product has +0, so +0.0 is added back;
* in 2-D, the first contraction of a real input, and its last one when
  the destination has an even half, need no negative rows (below); every
  other product is taken in two parts, rows -h..-1 from a conjugated copy
  of the half reversed, which lives for that product only, and then rows
  0..h-1 from the half itself (``_row_parts``).  Each row's dot product
  is the whole product's.  Row blocks of at most ``BLOCK_BYTES`` would
  hold less memory, but every block call repacks the whole operand: with
  an 800 x 1800 operator, a 1800² operand and 2 BLAS threads, blocks of
  that size made the product 15-25% slower than the whole one.

In 2-D the grid-sized work is done in blocks (``quadrature.block_slices``)
that split only a dimension a product does not contract.  That leaves each
entry's dot product as it was, and on OpenBLAS 0.3.31 (Haswell kernels)
the blocked products have the bits of the whole ones, for C- and F-ordered
operands (``tests/test_transform.py`` compares them byte for byte):

* a real input is converted to complex one column block at a time for
  the first contraction, so it is never copied to complex whole;
* that first contraction of a real input is formed on the half only: for
  a real operand row -a of the product is the conjugate of row a, and it
  is filled in by conjugation.  These rows are those of the whole
  product, except that an all-zero column gets imaginary zeros of the
  other sign, which leave the bits of the second contraction as they
  were;
* for a real input the last contraction is point symmetric too: the
  transform of a real function has F f(-xi) = conj F f(xi), since
  E(-iu) = conj E(iu), and the inverse of a real spectrum has the same
  symmetry.  On OpenBLAS 0.3.31 the whole product has it bit for bit
  when the destination's half is even (a multiple of 4 nodes) and not
  when it is odd.  A sweep of destination halves 36-60 and 80-360 from
  source halves 45 and 48 (forward transforms and real-spectrum
  inverses, C and F order, lines of +-0.0, 1, 2 and 4 BLAS threads)
  matched at every even destination half and at no odd one.  So when
  every destination half is even, the last contraction multiplies the
  half only: a forward transform fills rows -h..-1 with the conjugate
  of rows h..2h-1 reversed on both axes and adds +0.0 to their
  imaginary parts, as in 1-D; an inverse runs its row blocks over the
  half and copies its real part reversed on both axes, and the half's
  sup |Im| is the whole result's.  The path is picked from the
  operand's dtype and the half counts of the cached operators; complex
  operands and odd destination halves keep the two-part products, and
  every default grid has even halves;
* an inverse takes its last contraction in row blocks of the operator;
  each complex block gets the elementwise steps the whole array got
  (``/ c_k``, then ``then``), and its real part goes into a real result
  with the memory order the complex result had (Fortran).

What stays grid-sized: the input, the intermediate of the first
contraction, and the result.

Every grid inverse inverts the spectrum of a real function (E(-i xi, x)
is the conjugate of E(i xi, x)), so it keeps the real part of its result;
``inverse_dunkl_transform`` checks the sup |Im| it drops, ``imag_residue``,
against ``IMAG_RESIDUE_TOL`` (``_real_part_checked``).

The cache is shared by the runner's worker threads.  A lock guards its
dictionary updates only; the first thread to miss on a grid pair builds
its operators while later threads asking for the same pair wait for it
and get the same arrays, and operators for different pairs are built
concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future

import numpy as np

from .dunkl_kernel import kernel_imag_outer, kernel_imag_parts, on_cores
from .errors import AccuracyError
from .functions import GridSampled, sample
from .measure import WeightedContext
from .quadrature import AxisRule, TensorGrid, block_slices, check_shell
from .root_systems import as_points

#: byte cap of the kernel-matrix cache, read on every build
CACHE_BYTES = 256 * 2**20
#: point sums of at least this many products are split over the cores
SPLIT_MIN_PRODUCTS = 2**17
IMAG_RESIDUE_TOL = 1e-10


def _half(nodes: np.ndarray) -> np.ndarray:
    """The positive half x of mirrored nodes concat(-x[::-1], x)."""
    n = nodes.size // 2
    if nodes.size % 2 or not np.array_equal(nodes[:n], -nodes[n:][::-1]):
        raise ValueError("kernel matrices need mirrored axis nodes "
                         "concat(-x[::-1], x)")
    return nodes[n:]


def _weighted_operators(freq: AxisRule, space: AxisRule,
                        k: float) -> tuple[np.ndarray, np.ndarray]:
    """The non-negative rows of conj(E) * w_x and of E.T * w_xi, for
    E = E(i xi_a x_b), from one evaluation of its positive quadrant q:
    [q[:, ::-1], conj(q)] * w_x and [conj(q.T[:, ::-1]), q.T] * w_xi."""
    re, im = kernel_imag_parts(np.outer(_half(freq.nodes), _half(space.nodes)), k)
    q = re + 1j * im
    n, m = q.shape
    forward = np.empty((n, 2 * m), dtype=complex)
    forward[:, :m] = q[:, ::-1]
    np.conj(q, out=forward[:, m:])
    forward *= space.weights[None, :]
    inverse = np.empty((m, 2 * n), dtype=complex)
    np.conj(q.T[:, ::-1], out=inverse[:, :n])
    inverse[:, n:] = q.T
    inverse *= freq.weights[None, :]
    return forward, inverse


class KernelMatrixCache:
    """Halves of the weighted per-axis operators of the transform (their
    non-negative rows), keyed by the frequency rule, the spatial rule and
    the multiplicity.

    Safe under threads, and single-flight: one build per key however many
    threads miss on it at once.  Least recently used operators are evicted
    past ``CACHE_BYTES``.
    """

    def __init__(self):
        self._store: OrderedDict[bytes, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._building: dict[bytes, Future] = {}

    def matrix(self, freq: AxisRule, space: AxisRule, k: float,
               forward: bool) -> np.ndarray:
        """The non-negative rows of conj(E) * w_x (frequency x space) if
        ``forward``, else of E.T * w_xi (space x frequency): the stored
        array itself, so a hit returns the array the build did."""
        key = b"".join((np.float64(k).tobytes(), freq.nodes.tobytes(),
                        freq.weights.tobytes(), space.nodes.tobytes(),
                        space.weights.tobytes()))
        with self._lock:
            ops = self._store.get(key)
            if ops is not None:
                self._store.move_to_end(key)
                return ops[0] if forward else ops[1]
            pending = self._building.get(key)
            owner = pending is None
            if owner:
                pending = self._building[key] = Future()
        ops = (self._build(key, pending, freq, space, k) if owner
               else pending.result())
        return ops[0] if forward else ops[1]

    def _build(self, key: bytes, pending: Future, freq: AxisRule,
               space: AxisRule, k: float) -> tuple[np.ndarray, np.ndarray]:
        try:
            ops = _weighted_operators(freq, space, k)
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            pending.set_exception(exc)
            raise
        with self._lock:
            del self._building[key]
            self._store[key] = ops
            self._bytes += _nbytes(ops)
            while self._bytes > CACHE_BYTES and len(self._store) > 1:
                _, old = self._store.popitem(last=False)
                self._bytes -= _nbytes(old)
        pending.set_result(ops)
        return ops


def _nbytes(ops: tuple[np.ndarray, np.ndarray]) -> int:
    return sum(op.nbytes for op in ops)


_CACHE = KernelMatrixCache()


class SpectralFunction(GridSampled):
    """Frequency-side values on a tensor grid."""


def sup_abs(x: np.ndarray) -> float:
    """max |x| of a real array as max(max x, -min x): no temporary array,
    the same value (NaN if x holds one)."""
    return float(np.maximum(np.max(x), -np.min(x)))


def _scale(block: np.ndarray, steps) -> None:
    for ufunc, scalar in steps:
        ufunc(block, scalar, out=block)


def _real_part_into(dst: np.ndarray, block: np.ndarray, steps) -> float:
    """Scale the complex ``block`` in place by ``steps``, write its real
    part into ``dst`` and return its sup |Im|; the block dies with the call,
    before the next one is formed."""
    _scale(block, steps)
    dst[...] = block.real
    return sup_abs(block.imag)


def _row_parts(half: np.ndarray):
    """(first row, rows) of the operator whose non-negative rows are
    ``half``: its negative rows, a conjugated copy of ``half`` reversed (row
    -a is the conjugate of row a), then ``half`` itself."""
    return (0, np.conj(half[::-1])), (half.shape[0], half)


def _axis_transform(ctx: WeightedContext, vals: np.ndarray,
                    src: TensorGrid, dst: TensorGrid, forward: bool,
                    then=None):
    """Apply the cached weighted operators axis by axis, then divide by c_k
    in place, then apply ``then`` = (ufunc, scalar) in place if given.

    A forward transform returns that complex result.  An inverse returns
    (real part, sup |Im|) of it, and in 2-D the complex result is never
    formed whole (see the module docstring).

    c_k is read before the output is allocated: its first read sums the
    Gaussian mass on the refined grid, which should not overlap the complex
    output in memory."""
    c_k = ctx.c_k
    ks = ctx.system.ks
    freq, space = (dst, src) if forward else (src, dst)
    steps = [(np.divide, c_k)] + ([then] if then else [])
    halves = [_CACHE.matrix(freq.axes[d], space.axes[d], ks[d], forward)
              for d in range(ctx.dim)]
    vals = np.asarray(vals)
    h = halves[0].shape[0]
    if ctx.dim == 1:
        v = np.asarray(vals, dtype=complex)
        out = np.empty(2 * h, dtype=complex)
        np.dot(halves[0], v, out=out[h:])
        np.conj(np.dot(halves[0], np.conj(v))[::-1], out=out[:h])
        out[:h].imag += 0.0
        _scale(out, steps)
        return out if forward else (out.real.copy(), sup_abs(out.imag))
    first = np.empty((2 * h, vals.shape[1]), dtype=complex)
    real = not np.iscomplexobj(vals)
    if real:
        for cols in block_slices(vals.shape[1], 16 * vals.shape[0]):
            first[h:, cols] = np.dot(halves[0], vals[:, cols].astype(complex))
        np.conj(first[h:][::-1], out=first[:h])
    else:
        vals = np.asarray(vals, dtype=complex)
        for start, part in _row_parts(halves[0]):
            np.dot(part, vals, out=first[start:start + h])
    h = halves[1].shape[0]
    mirror = real and all(half.shape[0] % 2 == 0 for half in halves)
    parts = ((h, halves[1]),) if mirror else _row_parts(halves[1])
    if forward:
        out_t = np.empty((2 * h, first.shape[0]), dtype=complex)
        for start, part in parts:
            np.dot(part, first.T, out=out_t[start:start + h])
        if mirror:
            np.conj(out_t[h:][::-1, ::-1], out=out_t[:h])
            out_t[:h].imag += 0.0
        _scale(out_t, steps)
        return out_t.T
    out = np.empty((first.shape[0], 2 * h), order="F")
    residue = 0.0
    for start, part in parts:
        for rows in block_slices(h, 16 * first.shape[0]):
            stop = start + min(rows.stop, h)
            residue = np.maximum(residue, _real_part_into(
                out.T[start + rows.start:stop], np.dot(part[rows], first.T),
                steps))
    if mirror:
        out.T[:h] = out.T[h:][::-1, ::-1]
    return out, float(residue)


def dunkl_transform(ctx: WeightedContext, f) -> SpectralFunction:
    """Forward transform onto the frequency grid of the context.

    The integrand must have decayed inside the spatial box: the outer 5%
    shell of |f| dw may carry at most ``quadrature.SHELL_TOL`` of its mass,
    else DomainTooSmallError.
    """
    vals = sample(f, ctx.grid)
    check_shell(ctx.grid, vals, what="transform input")
    out = _axis_transform(ctx, vals, ctx.grid, ctx.freq_grid, forward=True)
    return SpectralFunction(grid=ctx.freq_grid, values=out)


def spectrum_of(ctx: WeightedContext, f) -> np.ndarray:
    """The transform of f on the frequency grid of the context: the values
    of a SpectralFunction as given, else those of ``dunkl_transform``."""
    if not isinstance(f, SpectralFunction):
        f = dunkl_transform(ctx, f)
    return sample(f, ctx.freq_grid)


def _real_part_checked(values: np.ndarray, what: str,
                       residue: float | None = None) -> np.ndarray:
    """The real part of ``values``, or AccuracyError if it is not finite or
    if sup |Im| exceeds IMAG_RESIDUE_TOL x max(sup |Re|, 1) (a NaN residue
    included).  For real ``values`` taken from complex ones, ``residue`` is
    that sup |Im|."""
    values = np.asarray(values)
    scale = max(sup_abs(values.real), 1.0)
    if not np.isfinite(scale):
        raise AccuracyError(f"{what} is not finite: sup |Re| is {scale}")
    if residue is None:
        residue = sup_abs(values.imag)
    if not residue <= IMAG_RESIDUE_TOL * scale:
        raise AccuracyError(
            f"{what} has imaginary residue {residue:.3g} (scale {scale:.3g})")
    return values.real


def inverse_dunkl_transform(ctx: WeightedContext, g, then=None) -> GridSampled:
    """Inverse transform of the spectrum of a real function onto the
    spatial grid.

    ``g`` is anything ``functions.sample`` reads on the frequency grid: a
    SpectralFunction, an array of values on it, or a callable.  ``then`` =
    (ufunc, scalar), if given, is applied in place to the complex result
    after the division by c_k, e.g. (np.multiply, c) for ``result *= c``.

    Only the real part is kept, formed block by block (see the module
    docstring); the returned samples carry the sup |Im| of the complex
    result as ``imag_residue``, which must be finite and at most
    IMAG_RESIDUE_TOL of the scale of the result, else AccuracyError.
    """
    vals = sample(g, ctx.freq_grid)
    out, residue = _axis_transform(ctx, vals, ctx.freq_grid, ctx.grid,
                                   forward=False, then=then)
    values = _real_part_checked(out, "inverse transform", residue)
    return GridSampled(grid=ctx.grid, values=values, imag_residue=residue)


def inverse_at_points(ctx: WeightedContext, g, points: np.ndarray) -> np.ndarray:
    """Inverse transform at ``points`` (``as_points``), one complex value each."""
    vals = sample(g, ctx.freq_grid)
    pts = as_points(points, ctx.dim)
    factors = []
    for d in range(ctx.dim):
        re, im = kernel_imag_outer(pts[:, d], ctx.freq_grid.axis_nodes(d),
                                   ctx.system.ks[d])
        factors.append((re + 1j * im) * ctx.freq_grid.axes[d].weights[None, :])
    return point_sums(factors, vals) / ctx.c_k


def point_sums(rows: list, values: np.ndarray) -> np.ndarray:
    """The sum over the grid of ``values`` against each point's per-axis
    ``rows`` (one (M, n_d) array per axis): ``rows[0] @ values.reshape(-1)``
    in rank 1; in rank 2 ``np.einsum("ma,mb,ab->m", *rows, values)`` bit
    for bit, in blocks of points across the cores (``dunkl_kernel.on_cores``)
    when it takes at least ``SPLIT_MIN_PRODUCTS`` products: each point's sum
    reads its own rows alone."""
    if len(rows) == 1:
        return rows[0] @ values.reshape(-1)
    left, right = rows
    out = np.empty(len(left), dtype=np.result_type(left, right, values))

    def block(lo: int, hi: int) -> None:
        np.einsum("ma,mb,ab->m", left[lo:hi], right[lo:hi], values,
                  out=out[lo:hi])

    on_cores(len(left), block, -(-SPLIT_MIN_PRODUCTS // max(values.size, 1)))
    return out


def plancherel_defect(ctx: WeightedContext, f) -> float:
    """Relative defect |  ||f|| - ||Ff||  | / ||f|| in L^2(dw) on each side."""
    vals = sample(f, ctx.grid)
    norm_f = np.sqrt(float(ctx.grid.integrate(np.abs(vals) ** 2)))
    tf = dunkl_transform(ctx, f)
    norm_tf = np.sqrt(float(ctx.freq_grid.integrate(np.abs(tf.values) ** 2)))
    return abs(norm_f - norm_tf) / norm_f


def dunkl_convolve(ctx: WeightedContext, f, g) -> GridSampled:
    """Dunkl convolution f * g = c_k F^{-1}[(F f)(F g)] on the spatial grid,
    for real f and g: the real part, with its ``imag_residue``
    (``inverse_dunkl_transform``).

    Either operand may be given as a SpectralFunction (``spectrum_of``).
    When ``g is f`` the operand is transformed once.
    """
    tf = spectrum_of(ctx, f)
    tg = tf if g is f else spectrum_of(ctx, g)
    product = SpectralFunction(grid=ctx.freq_grid, values=tf * tg)
    return inverse_dunkl_transform(ctx, product, then=(np.multiply, ctx.c_k))
