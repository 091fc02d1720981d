"""The rank-1 Dunkl kernel E_k and its sign-flip product extension.

E_k restricted to one coordinate pair depends only on the product w = x*z and
solves T f = z f, f(0) = 1.  Three evaluators of the same analytic function:

* power series via the recurrence a_{n+1} = w a_n / (n+1 + 2k*[n+1 odd]) —
  definitive but float64-cancellation-limited to moderate |w|; off the
  imaginary axis only;
* Bessel-J closed form for purely imaginary argument, at every |w|;
* Bessel-I closed form for real argument (heat-kernel side), with an
  exponentially scaled variant for large arguments.

For Z2^N products, E(x, z) = prod_d E_{k_d}(x_d z_d).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gamma, hyp0f1, ive, jv

from .errors import AccuracyError
from .root_systems import RootSystemSpec, as_points

#: adaptive series termination: stop after this many consecutive terms below
#: SERIES_STOP_RATIO times the partial sum.
SERIES_STOP_RUN = 5
SERIES_STOP_RATIO = 1e-16
SERIES_MAX_TERMS = 1000
#: |w| beyond which the alternating series loses more than ~6 digits in
#: float64 and the closed forms take over.
SERIES_STABLE_LIMIT = 20.0
#: |w| below which the hypergeometric series is used instead of Bessel forms
#: (avoids the 0*inf limit of the closed form at w = 0).
SMALL_ARG_LIMIT = 0.5


def kernel_series(w: complex, k: float) -> complex:
    """Sum the defining power series of E_k at product argument w, adding
    terms until ``SERIES_STOP_RUN`` consecutive ones are negligible."""
    w = complex(w)
    if k < 0:
        raise ValueError("multiplicity must be nonnegative")
    a = 1.0 + 0.0j
    total = a
    quiet = 0
    for n in range(1, SERIES_MAX_TERMS + 1):
        denom = n + (2.0 * k if n % 2 == 1 else 0.0)
        a = w * a / denom
        total += a
        if abs(a) < SERIES_STOP_RATIO * abs(total):
            quiet += 1
            if quiet >= SERIES_STOP_RUN:
                return total
        else:
            quiet = 0
    raise AccuracyError(
        f"series did not settle within {SERIES_MAX_TERMS} terms "
        f"for |w|={abs(w):.3g}")


def kernel_imag_parts(u, k: float):
    """Real and imaginary parts of E_k(i u) for real u, vectorized.

    Even/odd closed forms:
        Re = Gamma(k+1/2) (|u|/2)^{1/2-k} J_{k-1/2}(|u|)
        Im = sign(u) |u|/(2k+1) Gamma(k+3/2) (|u|/2)^{-1/2-k} J_{k+1/2}(|u|)
    with the hypergeometric series taking over near u = 0.
    """
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    re = np.empty_like(au)
    im = np.empty_like(au)
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
    return re, im


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
    return even + np.sign(v) * odd


def kernel_real(v, k: float):
    """E_k(v) for real v; overflows for |v| beyond ~700 by design."""
    v = np.asarray(v, dtype=float)
    return kernel_real_scaled(v, k) * np.exp(np.abs(v))


def _axis_value(w: complex, k: float) -> complex:
    """E_k(w), on the imaginary axis by ``kernel_imag_parts`` at every |w|."""
    if w.real == 0.0:
        re, im = kernel_imag_parts(np.array(w.imag), k)
        return complex(re) + 1j * complex(im)
    if abs(w) <= SERIES_STABLE_LIMIT:
        return kernel_series(w, k)
    if w.imag == 0.0:
        return complex(kernel_real(np.array(w.real), k))
    raise AccuracyError(
        f"no stable evaluator for large complex argument |w|={abs(w):.3g} "
        "off the real and imaginary axes")


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


def dunkl_kernel_E(system: RootSystemSpec, x, z) -> complex:
    """E_k(x, z) for a sign-flip product system; z may be real or imaginary.

    The value is the per-coordinate product of rank-1 kernels at the
    products x_d z_d.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if x.shape != (system.dim,) or z.shape != (system.dim,):
        raise ValueError(f"arguments must be vectors of length {system.dim}")
    ks = system.ks
    total = 1.0 + 0.0j
    for d in range(system.dim):
        total *= _axis_value(complex(x[d] * z[d]), ks[d])
    return total
