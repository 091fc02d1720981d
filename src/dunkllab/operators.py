"""Dunkl operators and the Dunkl Laplacian.

On a product system (roots +-sqrt(2) e_j, multiplicity k_j) the sum over
positive roots is a sum over axes, and the reflection sigma_j negates x_j:

T_zeta f(x) = d_zeta f(x) + sum_j k_j zeta_j (f(x) - f(sigma_j x)) / x_j

The PolyGauss family is closed under T_zeta: the reflection difference
f - f o sigma_j is odd in x_j, hence exactly divisible by the coordinate.
For general callables the difference quotient is evaluated directly away
from the hyperplane x_j = 0 and by the integral-mean identity

    (f(x) - f(sigma_j x)) / x_j
        = 2 int_0^1 d_j f(sigma_j x + t(x - sigma_j x)) dt

near it, which is stable where the quotient is not.
"""

from __future__ import annotations

import numpy as np

from .errors import CapabilityError
from .functions import CallableFunction, PolyGauss
from .root_systems import RootSystemSpec, as_points

#: |x_j| below which the callable path switches from the direct
#: difference quotient to the segment-integral identity.
QUOTIENT_SWITCH = 1e-4

_SEG_NODES, _SEG_WEIGHTS = np.polynomial.legendre.leggauss(8)
_SEG_NODES = 0.5 * (_SEG_NODES + 1.0)
_SEG_WEIGHTS = 0.5 * _SEG_WEIGHTS


def _apply_polygauss(system: RootSystemSpec, zeta: np.ndarray, f: PolyGauss) -> PolyGauss:
    out = f.directional_deriv(zeta)
    ks = system.ks
    for d in range(system.dim):
        if ks[d] == 0.0 or zeta[d] == 0.0:
            continue
        diff = f - f.reflect_axis(d)
        out = out + diff.divide_coordinate(d).scale(ks[d] * zeta[d])
    return out


def dunkl_apply_values(system: RootSystemSpec, f: CallableFunction,
                       zeta: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """T_zeta f at ``pts`` (``as_points``) for a callable with gradient."""
    pts = as_points(pts, system.dim)
    zeta = np.asarray(zeta, dtype=float)
    out = f.gradient(pts) @ zeta
    fvals = None
    for d in range(system.dim):
        coef = system.ks[d] * zeta[d]
        if coef == 0.0:
            continue
        refl = pts * (1.0 - 2.0 * np.eye(system.dim)[d])  # sigma_d x
        quot = np.zeros(len(pts))
        far = np.abs(pts[:, d]) > QUOTIENT_SWITCH
        if np.any(far):
            if fvals is None:
                fvals = f(pts)
            quot[far] = (fvals[far] - f(refl[far])) / pts[far, d]
        near = ~far
        if np.any(near):
            a, b = refl[near], pts[near]
            quot[near] = 2.0 * sum(w * f.gradient(a + t * (b - a))[:, d]
                                   for t, w in zip(_SEG_NODES, _SEG_WEIGHTS))
        out = out + coef * quot
    return out


def apply_dunkl(system: RootSystemSpec, zeta, f):
    """Dunkl operator T_zeta applied to f.

    PolyGauss inputs on product systems return PolyGauss (exact).  Callable
    inputs with a gradient callback return a CallableFunction evaluating
    T_zeta f pointwise.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
    if zeta.shape != (system.dim,):
        raise ValueError(f"direction must be a vector of length {system.dim}")
    if not np.any(zeta):
        raise ValueError("direction vector must be nonzero")
    if isinstance(f, PolyGauss):
        return _apply_polygauss(system, zeta, f)
    if isinstance(f, CallableFunction):
        if f.gradient is None:
            raise CapabilityError(
                "Dunkl operator on a callable needs a gradient callback")
        return CallableFunction(
            fn=lambda pts: dunkl_apply_values(system, f, zeta, pts))
    raise CapabilityError(
        f"Dunkl operator not implemented for {type(f).__name__}")


def apply_dunkl_iterated(system: RootSystemSpec, zeta, f, order: int):
    """T_zeta^order f by repeated application."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    for _ in range(order):
        f = apply_dunkl(system, zeta, f)
    return f


def dunkl_laplacian(system: RootSystemSpec, f):
    """Dunkl Laplacian of a PolyGauss function on a product system,
    Delta f + sum_d k_d (2 x_d d_d f - (f - f o sigma_d)) / x_d^2, whose
    numerator is exactly divisible by x_d^2 on the PolyGauss family."""
    if not isinstance(f, PolyGauss):
        raise CapabilityError("Dunkl Laplacian requires a PolyGauss input")
    ks = system.ks
    out = None
    for d in range(system.dim):
        term = f.deriv(d).deriv(d)
        if ks[d] != 0.0:
            numer = f.deriv(d).mul_coordinate(d).scale(2.0) - (f - f.reflect_axis(d))
            term = term + numer.divide_coordinate(d).divide_coordinate(d).scale(ks[d])
        out = term if out is None else out + term
    return out
