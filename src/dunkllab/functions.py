"""Function representations closed under the operators of the package.

PolyGauss — multivariate polynomial times a per-coordinate Gaussian
  P(x) * prod_d exp(-a_d x_d^2).  Closed under differentiation, coordinate
  reflection, and (for sign-flip root systems) the reflection-difference
  quotients, so Dunkl operators act on it exactly.

GridSampled — values on a tensor quadrature grid (spatial or frequency side).

CallableFunction — plain callable with optional directional-derivative
  callbacks, for functions outside the PolyGauss family.

``sample(f, where)`` puts any of these, a callable or an array on a tensor
grid or a point batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .quadrature import TensorGrid
from .root_systems import as_points


def _poly_eval(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate an N-dim coefficient array at points (M, N), N <= 2."""
    nd = coeffs.ndim
    if nd == 1:
        return npoly.polyval(pts[:, 0], coeffs)
    if nd == 2:
        return npoly.polyval2d(pts[:, 0], pts[:, 1], coeffs)
    raise NotImplementedError("polynomial evaluation implemented for dim <= 2")


def _convolve(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Full convolution of two coefficient arrays of the same rank, with the
    bytes of ``scipy.signal.convolve`` in its direct mode.

    In 1-D scipy hands the product to ``np.convolve``.  In N-D the loop
    adds ``p * c[j]`` into a zero array for each index ``j`` of ``c`` in C
    order, which gives scipy's sums in scipy's order, so rounding and
    signed zeros agree (the tests compare bytes).  Looping over the indices
    of ``p`` instead changes the order of the sums, and so the bits; a
    slice shift for a factor x_d changes the sign of zeros.
    """
    if c.ndim == 1:
        return np.convolve(c, p)
    out = np.zeros(tuple(m + n - 1 for m, n in zip(c.shape, p.shape)))
    for j in np.ndindex(c.shape):
        out[tuple(slice(i, i + n) for i, n in zip(j, p.shape))] += p * c[j]
    return out


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop all-zero trailing hyperslices so degrees stay tight."""
    c = np.asarray(coeffs, dtype=float)
    for axis in range(c.ndim):
        while c.shape[axis] > 1:
            sl = [slice(None)] * c.ndim
            sl[axis] = -1
            if np.any(c[tuple(sl)] != 0.0):
                break
            keep = [slice(None)] * c.ndim
            keep[axis] = slice(0, c.shape[axis] - 1)
            c = c[tuple(keep)]
    return c


@dataclass(frozen=True)
class PolyGauss:
    """P(x) * prod_d exp(-a_d x_d^2) with an N-dim coefficient array for P."""

    coeffs: np.ndarray
    exponents: np.ndarray  # (dim,), all > 0

    def __post_init__(self):
        c = _trim(np.asarray(self.coeffs, dtype=float))
        a = np.atleast_1d(np.asarray(self.exponents, dtype=float))
        if c.ndim != a.size:
            raise ValueError("coefficient array rank must match number of exponents")
        if np.any(a <= 0):
            raise ValueError("Gaussian exponents must be positive")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "exponents", a)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    # -- evaluation ---------------------------------------------------------

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = as_points(pts, self.dim)
        gauss = np.exp(-np.sum(self.exponents[None, :] * pts**2, axis=1))
        return _poly_eval(self.coeffs, pts) * gauss

    def values_on(self, grid: TensorGrid) -> np.ndarray:
        """Sample on a tensor grid without forming its points.

        Horner runs along one axis at a time, in axis order, and the Gaussian
        exponent is summed over axes by broadcasting in the same order.  These
        are the floating-point operations of ``polyval2d`` and of
        ``__call__``, so the result equals
        ``self(grid.points()).reshape(grid.shape)`` bit for bit.
        """
        vals = self.coeffs
        expo = 0.0
        for d in range(self.dim):
            nodes = grid.axis_nodes(d)
            vals = npoly.polyval(nodes, vals)
            shape = [1] * self.dim
            shape[d] = nodes.size
            expo = expo + (self.exponents[d] * nodes**2).reshape(shape)
        return vals * np.exp(-expo)

    # -- algebra ------------------------------------------------------------

    def _check_same_exponents(self, other: "PolyGauss"):
        if not np.allclose(self.exponents, other.exponents, rtol=0, atol=0):
            raise ValueError("PolyGauss arithmetic needs identical Gaussian exponents")

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check_same_exponents(other)
        shape = np.maximum(self.coeffs.shape, other.coeffs.shape)
        c = np.zeros(shape)
        c[tuple(slice(0, s) for s in self.coeffs.shape)] += self.coeffs
        c[tuple(slice(0, s) for s in other.coeffs.shape)] += other.coeffs
        return PolyGauss(c, self.exponents)

    def __sub__(self, other: "PolyGauss") -> "PolyGauss":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "PolyGauss":
        return PolyGauss(self.coeffs * c, self.exponents)

    def mul_poly(self, poly_coeffs: np.ndarray) -> "PolyGauss":
        """Multiply by a polynomial given as an N-dim coefficient array.

        The product's coefficients have the bytes of scipy's direct
        convolution (``_convolve``).
        """
        p = np.asarray(poly_coeffs, dtype=float)
        if p.ndim != self.dim:
            raise ValueError("polynomial factor has wrong dimension")
        return PolyGauss(_convolve(self.coeffs, p), self.exponents)

    def mul_coordinate(self, axis: int) -> "PolyGauss":
        shape = [1] * self.dim
        shape[axis] = 2
        p = np.zeros(shape)
        p[tuple(0 if d != axis else 1 for d in range(self.dim))] = 1.0
        return self.mul_poly(p)

    # -- calculus -----------------------------------------------------------

    def deriv(self, axis: int) -> "PolyGauss":
        """Partial derivative: (P' - 2 a_d x_d P) * Gaussian."""
        c = self.coeffs
        dP = npoly.polyder(np.moveaxis(c, axis, -1), 1, axis=-1) if c.shape[axis] > 1 \
            else np.zeros([1 if d == axis else s for d, s in enumerate(c.shape)])
        if c.shape[axis] > 1:
            dP = np.moveaxis(dP, -1, axis)
        out = PolyGauss(dP, self.exponents) + \
            self.mul_coordinate(axis).scale(-2.0 * self.exponents[axis])
        return out

    def directional_deriv(self, zeta) -> "PolyGauss":
        zeta = np.atleast_1d(np.asarray(zeta, dtype=float))
        out = None
        for d, z in enumerate(zeta):
            if z == 0.0:
                continue
            term = self.deriv(d).scale(z)
            out = term if out is None else out + term
        if out is None:
            return PolyGauss(np.zeros_like(self.coeffs), self.exponents)
        return out

    def reflect_axis(self, axis: int) -> "PolyGauss":
        """Compose with the sign flip of one coordinate (Gaussian invariant)."""
        c = self.coeffs
        idx = np.arange(c.shape[axis])
        signs = np.where(idx % 2 == 1, -1.0, 1.0)
        shape = [1] * self.dim
        shape[axis] = c.shape[axis]
        return PolyGauss(c * signs.reshape(shape), self.exponents)

    def divide_coordinate(self, axis: int) -> "PolyGauss":
        """Exact division by x_axis; requires the constant slice to vanish."""
        c = self.coeffs
        sl = [slice(None)] * self.dim
        sl[axis] = 0
        if np.max(np.abs(c[tuple(sl)])) > 1e-12 * max(np.max(np.abs(c)), 1e-300):
            raise ValueError("polynomial is not divisible by the coordinate")
        sl[axis] = slice(1, None)
        out = c[tuple(sl)]
        if out.shape[axis] == 0:
            out = np.zeros([1 if d == axis else s for d, s in enumerate(c.shape)])
        return PolyGauss(out, self.exponents)


@dataclass(frozen=True)
class GridSampled:
    """Function known by its samples on a tensor quadrature grid.

    ``imag_residue`` is sup |Im| of the complex samples whose real part
    ``values`` holds, when they were taken from such (a grid inverse
    transform); 0 otherwise.
    """

    grid: TensorGrid
    values: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v.reshape(self.grid.shape))

    def values_on(self, grid: TensorGrid) -> np.ndarray:
        if grid is not self.grid and grid.geometry != self.grid.geometry:
            raise ValueError(f"{type(self).__name__} is bound to its own grid")
        return self.values


@dataclass(frozen=True)
class CallableFunction:
    """Callable with optional analytic directional-derivative callbacks.

    ``gradient`` maps point batches to (M, dim) arrays; it enables the stable
    segment-integral evaluation of reflection-difference quotients near
    hyperplanes.
    """

    fn: object
    gradient: object | None = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """``fn`` at an (M, dim) batch; the class knows no dimension, so any
        other shape raises ValueError."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2:
            raise ValueError("a CallableFunction takes an (M, dim) point "
                             f"batch; got shape {pts.shape}")
        return np.asarray(self.fn(pts))


def sample(f, where) -> np.ndarray:
    """f on a TensorGrid, in the grid's shape, or at an (M, dim) point
    batch.  On a grid, ``f.values_on`` is used where f has it, a callable
    is evaluated at ``where.points()``, and an array is taken as it is."""
    if not isinstance(where, TensorGrid):
        return np.asarray(f(where))
    if hasattr(f, "values_on"):
        values = f.values_on(where)
    elif callable(f):
        values = f(where.points())
    else:
        values = f
    return np.asarray(values).reshape(where.shape)


# ---------------------------------------------------------------------------
# stock families
# ---------------------------------------------------------------------------

def gaussian(dim: int, a: float = 0.5) -> PolyGauss:
    return PolyGauss(np.ones([1] * dim), np.full(dim, float(a)))


def hermite_gauss(n: int, a: float = 0.5) -> PolyGauss:
    """H_n(x) exp(-a x^2) in one dimension (physicists' Hermite)."""
    herm = np.zeros(n + 1)
    herm[n] = 1.0
    coeffs = np.polynomial.hermite.herm2poly(herm)
    return PolyGauss(coeffs, np.array([a]))


def hermite_family(max_degree: int) -> list[PolyGauss]:
    """1-D calibration family: Hermite polynomials times Gaussians of the
    widths 0.35, 0.5 and 0.75, ordered deterministically."""
    return [hermite_gauss(n, a) for a in (0.35, 0.5, 0.75)
            for n in range(max_degree + 1)]


def monomial_gauss(powers, a) -> PolyGauss:
    """x^powers * prod exp(-a_d x_d^2) for a multi-index ``powers``."""
    powers = np.atleast_1d(np.asarray(powers, dtype=int))
    a = np.broadcast_to(np.asarray(a, dtype=float), powers.shape)
    c = np.zeros(powers + 1)
    c[tuple(powers)] = 1.0
    return PolyGauss(c, a.copy())


@dataclass(frozen=True)
class RadialFunction(CallableFunction):
    """A CallableFunction of |x|^2 alone: ``profile(|x|^2)``.

    Its ``fn`` and ``gradient`` know their dimension and read points by
    ``as_points``, so a call hands them the points as given: in rank 1 an
    (M,) vector is M points.  On a grid it is sampled from the axes, |x|^2
    by ``TensorGrid.outer_sum``, which for dim <= 2 has the bits of the row
    sums over ``points()``; ``points()`` is not formed.
    """

    profile: object = None

    def __call__(self, pts) -> np.ndarray:
        return np.asarray(self.fn(pts))

    def values_on(self, grid: TensorGrid) -> np.ndarray:
        return self.profile(grid.outer_sum(lambda d, x: x * x))


#: exponent of ``radial_bump``
BUMP_POWER = 12


def radial_bump(dim: int, radius: float) -> RadialFunction:
    """Compactly supported radial bump (1 - (|x|/radius)^2)^p on B(0, radius),
    p = BUMP_POWER.

    C^{p-1} at the boundary; its transform decays like |xi|^{-(p+1)} per
    axis, which sets the frequency box needed to reconstruct it.
    """

    def profile(sq):
        u = sq / radius**2
        return np.where(u < 1.0, np.maximum(1.0 - u, 0.0) ** BUMP_POWER, 0.0)

    def fn(pts):
        pts = as_points(pts, dim)
        return profile(np.sum(pts**2, axis=1))

    def grad(pts):
        pts = as_points(pts, dim)
        u = np.sum(pts**2, axis=1) / radius**2
        fac = np.where(u < 1.0, -2.0 * BUMP_POWER / radius**2
                       * np.maximum(1.0 - u, 0.0) ** (BUMP_POWER - 1), 0.0)
        return fac[:, None] * pts

    return RadialFunction(fn=fn, gradient=grad, profile=profile)
