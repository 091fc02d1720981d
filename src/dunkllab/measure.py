"""Weighted measure dw(x) = prod_{a in R} |<x,a>|^{k(a)} dx and friends.

Provides the weighted context (grids + normalization constant), ball volumes of
the weighted measure, the exponential weight eta(x,s) = exp(sqrt(1+s^2|x|^2))
with closed-form derivatives, and weighted norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import AccuracyError
from .quadrature import AxisRule, TensorGrid, check_refined, check_shell
from .root_systems import ReflectionGroup, RootSystemSpec, as_point, as_points


# ---------------------------------------------------------------------------
# ball volumes
# ---------------------------------------------------------------------------

def _axis_antiderivative(v, k: float):
    """Antiderivative of the per-axis density 2^k |u|^{2k}."""
    v = np.asarray(v, dtype=float)
    return 2.0**k * np.sign(v) * np.abs(v) ** (2.0 * k + 1.0) / (2.0 * k + 1.0)


@lru_cache(maxsize=8)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n and
    shared read-only by every ball volume of the process."""
    t, w = roots_legendre(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _ball_volume_product2(ks, center, r: float) -> float:
    """w(B(center, r)) for a 2-axis product weight, reduced to one dimension.

    Integrates over u = x1 - r*cos(theta); the x2 chord integral is the exact
    antiderivative.  The theta integral is split where u crosses 0 so each
    panel is smooth up to an algebraic endpoint factor.  Every panel uses the
    same 240-point Gauss-Legendre rule, built once per process.
    """
    k1, k2 = ks
    x1, x2 = center

    def integrand(theta):
        u = x1 - r * np.cos(theta)
        h = r * np.sin(theta)
        chord = _axis_antiderivative(x2 + h, k2) - _axis_antiderivative(x2 - h, k2)
        return 2.0**k1 * np.abs(u) ** (2.0 * k1) * chord * r * np.sin(theta)

    cuts = [0.0, np.pi]
    if abs(x1) < r:
        cuts.append(float(np.arccos(np.clip(x1 / r, -1.0, 1.0))))
    cuts = sorted(cuts)
    t, w = _legendre_rule(240)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        theta = (b - a) / 2.0 * t + (a + b) / 2.0
        total += (b - a) / 2.0 * np.sum(w * integrand(theta))
    return float(total)


def ball_volume(system: RootSystemSpec, center, r: float) -> float:
    """Weighted volume w(B(center, r)) of the ball about one point."""
    center = as_point(center, system.dim)
    if r <= 0:
        raise ValueError("ball radius must be positive")
    ks = system.ks
    if system.dim == 1:
        lo, hi = center[0] - r, center[0] + r
        return float(_axis_antiderivative(hi, ks[0]) - _axis_antiderivative(lo, ks[0]))
    return _ball_volume_product2(ks, center, r)


def volume_max_pairs(system: RootSystemSpec, xs, ys, t: float) -> np.ndarray:
    """V(x_i, y_i, t) = max(w(B(x_i,t)), w(B(y_i,t))) for each pair of points.

    Pair sets repeat their points, so each distinct centre among the rows of
    xs and ys gets one ball volume; the pairs then take element-wise maxima.
    """
    xs = as_points(xs, system.dim)
    ys = as_points(ys, system.dim)
    centers, inverse = np.unique(np.concatenate([xs, ys]), axis=0,
                                 return_inverse=True)
    vols = np.array([ball_volume(system, c, t) for c in centers])
    vols = vols[inverse.reshape(-1)]
    return np.maximum(vols[:len(xs)], vols[len(xs):])


# ---------------------------------------------------------------------------
# the exponential weight eta and its derivatives
# ---------------------------------------------------------------------------

def _radial_derivs(rho: np.ndarray, s: float, order: int) -> list[np.ndarray]:
    """Derivatives in rho of F(rho) = exp(sqrt(1 + s^2 rho)), orders
    0..order, order <= 2."""
    g = np.sqrt(1.0 + s * s * rho)
    E = np.exp(g)
    out = [E]
    if order >= 1:
        gp = s * s / (2.0 * g)
        out.append(gp * E)
    if order >= 2:
        gpp = -(s**4) / (4.0 * g**3)
        out.append((gpp + gp**2) * E)
    return out


def eta(points: np.ndarray, s: float) -> np.ndarray:
    """eta(x, s) = exp(sqrt(1 + s^2 |x|^2)); radial and reflection-invariant."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.sum(pts**2, axis=1)
    return np.exp(np.sqrt(1.0 + s * s * rho))


def eta_directional(points: np.ndarray, s: float, zeta, order: int) -> np.ndarray:
    """Directional derivative (d/dt)^order eta(x + t*zeta, s) at t = 0.

    Orders 1, 2 in closed form via the chain rule on rho(t) = |x + t zeta|^2,
    whose only nonzero derivatives are rho' and rho''.
    """
    if order not in (1, 2):
        raise ValueError("directional derivatives implemented for orders 1, 2")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    zeta = np.asarray(zeta, dtype=float)
    rho = np.sum(pts**2, axis=1)
    rp = 2.0 * (pts @ zeta)
    rpp = 2.0 * float(zeta @ zeta)
    F = _radial_derivs(rho, s, order)
    if order == 1:
        return F[1] * rp
    return F[2] * rp**2 + F[1] * rpp


def eta_radial_factor(points: np.ndarray, s: float) -> np.ndarray:
    """F'(|x|^2) for F(rho) = exp(sqrt(1+s^2 rho)).

    This is the whole content of the reflection-difference quotient of a first
    derivative of eta: for any root a and direction zeta,
    (d_zeta eta(x) - d_zeta eta(sigma_a x)) / <a, x> = 4 F'(|x|^2) <a,zeta>/|a|^2,
    because eta is radial.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.sum(pts**2, axis=1)
    return _radial_derivs(rho, s, 1)[1]


class EtaFields:
    """eta(., s), its directional derivatives and F'(|x|^2), at one s.

    ``where`` is a TensorGrid or an (M, dim) point array.  On a grid every
    field takes the grid's shape and is computed once, then held with the
    grid for the life of the object.  Fields on point arrays are computed on
    each request.

    The fields are grid-sized and depend on s alone, so a check that
    evaluates many functions at several s (garding) keeps s as its outer
    loop: it builds one instance per s and drops it before the next, and
    only one set of fields is alive at a time.  What does not depend on s is
    held elsewhere for the whole check: the Dunkl images of each function
    (``forms.DunklImages``), small PolyGauss objects.  The grid samples of a
    function and its images depend on neither, but are grid-sized too: they
    live for one (s, f) only.
    """

    def __init__(self, s: float):
        self.s = s
        self._held: dict = {}

    def _held_for(self, grid: TensorGrid, key, compute):
        # the grid stays referenced next to its fields, so its id is not reused
        slot = (id(grid), key)
        if slot not in self._held:
            self._held[slot] = (grid, compute())
        return self._held[slot][1]

    def _field(self, where, key, fn):
        if not isinstance(where, TensorGrid):
            return fn(where)
        pts = self._held_for(where, "points", where.points)
        return self._held_for(where, key, lambda: fn(pts).reshape(where.shape))

    def eta(self, where) -> np.ndarray:
        return self._field(where, ("eta",), lambda p: eta(p, self.s))

    def directional(self, where, zeta, order: int) -> np.ndarray:
        return self._field(where, ("directional", tuple(zeta), order),
                           lambda p: eta_directional(p, self.s, zeta, order))

    def radial_factor(self, where) -> np.ndarray:
        return self._field(where, ("radial",),
                           lambda p: eta_radial_factor(p, self.s))


# ---------------------------------------------------------------------------
# weighted context
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gaussian_mass(geometry: tuple) -> float:
    """int exp(-|x|^2/2) dw by the quadrature of one grid geometry, once per
    process: a refined context's base grid is the refined grid of the
    context it came from, so both of their c_k need the same sum.  The
    field is formed on the grid axes and weighted in place
    (``TensorGrid.weighted``)."""
    grid = TensorGrid(axes=tuple(AxisRule.build(*axis) for axis in geometry))
    vals = grid.outer_sum(lambda d, x: x ** 2)
    vals *= -0.5
    np.exp(vals, out=vals)
    return np.sum(grid.weighted(vals, vals))


@dataclass
class WeightedContext:
    """Root system + quadrature grids + cached normalization constant.

    The spatial grid covers [-box, box]^dim, the frequency grid
    [-freq_box, freq_box]^dim; both carry the weighted measure in their
    weights.  ``n_half`` is the node count per half-axis.
    """

    system: RootSystemSpec
    box: float = 12.0
    n_half: int | None = None
    freq_box: float = 13.0
    freq_n_half: int | None = None

    def __post_init__(self):
        if self.n_half is None:
            self.n_half = 200 if self.system.dim == 1 else 80
        if self.freq_n_half is None:
            self.freq_n_half = self.n_half

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def homogeneous_dim(self) -> float:
        return self.system.homogeneous_dim

    def _make_grid(self, box: float, n_half: int) -> TensorGrid:
        return TensorGrid.build(self.system.ks, box, n_half)

    @cached_property
    def grid(self) -> TensorGrid:
        return self._make_grid(self.box, self.n_half)

    @cached_property
    def grid_fine(self) -> TensorGrid:
        return self.grid.refined()

    @cached_property
    def freq_grid(self) -> TensorGrid:
        return self._make_grid(self.freq_box, self.freq_n_half)

    @cached_property
    def group(self) -> ReflectionGroup:
        return ReflectionGroup(self.dim)

    @cached_property
    def c_k(self) -> float:
        """Gaussian mass integral c_k = ∫ exp(-|x|^2/2) dw(x), by quadrature,
        refinement-checked; cross-checked against (2 pi)^{dim/2} when k = 0."""
        fine = check_refined(_gaussian_mass(self.grid.geometry),
                             _gaussian_mass(self.grid_fine.geometry),
                             1e-9, "normalization constant")
        if np.all(self.system.ks == 0.0):
            classical = (2.0 * np.pi) ** (self.dim / 2.0)
            if abs(fine - classical) > 1e-8 * classical:
                raise AccuracyError(
                    f"k=0 normalization {fine:.12g} disagrees with (2 pi)^(dim/2)"
                )
        return float(fine)

    def with_grids(self, box: float | None = None, n_half: int | None = None,
                   freq_box: float | None = None,
                   freq_n_half: int | None = None) -> "WeightedContext":
        """A context on the same system with different grid geometry."""
        return WeightedContext(
            system=self.system,
            box=self.box if box is None else box,
            n_half=self.n_half if n_half is None else n_half,
            freq_box=self.freq_box if freq_box is None else freq_box,
            freq_n_half=self.freq_n_half if freq_n_half is None else freq_n_half,
        )


def weighted_norm(ctx: WeightedContext, f, s: float) -> float:
    """L^2 norm of f against eta(., s) dw; s = 0 means plain L^2(dw).

    f may be a callable on point batches or an object with ``values_on(grid)``.
    The integrand must decay inside the box (boundary-shell check) and the
    value must be stable under grid refinement.
    """
    def values(grid: TensorGrid) -> np.ndarray:
        if hasattr(f, "values_on"):
            return np.asarray(f.values_on(grid), dtype=float).reshape(grid.shape)
        return grid.evaluate(f)

    return _weighted_norm(ctx, values, EtaFields(s))


def _weighted_norm(ctx: WeightedContext, values, fields: EtaFields) -> float:
    """``weighted_norm`` at ``fields.s`` of the function whose samples on a
    grid are ``values(grid)``, taking eta from ``fields``."""
    def norm_sq(grid: TensorGrid) -> float:
        # |f|^2 eta >= 0, so the shell check's mass is its integral
        integrand = np.abs(values(grid)) ** 2
        if fields.s != 0.0:
            integrand = integrand * fields.eta(grid)
        return check_shell(grid, integrand, what="weighted norm")

    fine = check_refined(norm_sq(ctx.grid), norm_sq(ctx.grid_fine),
                         1e-8, "weighted norm", floor=1.0)
    return float(np.sqrt(fine))
