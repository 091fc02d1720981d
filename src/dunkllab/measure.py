"""Weighted measure dw(x) = prod_{a in R} |<x,a>|^{k(a)} dx and friends.

Provides the weighted context (grids + normalization constant), ball volumes of
the weighted measure, the exponential weight eta(x,s) = exp(sqrt(1+s^2|x|^2))
with its closed-form derivatives (``EtaFields``, the one way to them), and
weighted norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import AccuracyError
from .functions import sample
from .quadrature import (AxisRule, TensorGrid, boundary_shell_fraction,
                         check_refined, check_shell, guard_shell)
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

def _radial_derivs(rho: np.ndarray, s: float, order: int,
                   E: np.ndarray | None = None) -> list[np.ndarray]:
    """Derivatives in rho of F(rho) = exp(sqrt(1 + s^2 rho)), orders
    0..order, order <= 2; F itself is ``E`` when it is given."""
    g = np.sqrt(1.0 + s * s * rho)
    out = [np.exp(g) if E is None else E]
    if order >= 1:
        gp = s * s / (2.0 * g)
        out.append(gp * out[0])
    if order >= 2:
        gpp = -(s**4) / (4.0 * g**3)
        out.append((gpp + gp**2) * out[0])
    return out


class SampleStore:
    """Values computed once per (grid or point batch, key), each held next
    to its grid or batch, whose id the key holds, for the store's life."""

    def __init__(self):
        self._held: dict = {}

    def get(self, where, key, compute):
        slot = (id(where), key)
        if slot not in self._held:
            self._held[slot] = (where, compute())
        return self._held[slot][1]


class EtaFields:
    """eta(., s), its directional derivatives and F'(|x|^2), at one s, on a
    TensorGrid (in the grid's shape) or at an (M, dim) point batch.

    All come from one radial chain per (grid or batch, s), held in
    ``store``: |x|^2 and <x, zeta> (with the grid's points, for every s
    that shares the store), then F = exp(sqrt(1 + s^2 |x|^2)) = eta, F' and
    F'' as far as a request needs.  A directional derivative is formed on
    each request, F' rho' or F'' rho'^2 + F' rho''.
    """

    def __init__(self, s: float, store: SampleStore | None = None):
        self.s = s
        self.store = SampleStore() if store is None else store

    def _of_points(self, where, key, fn):
        """``fn`` of the points of ``where``, held, in the grid's shape on a
        grid; knowing no dimension, it takes (M, dim) point batches only."""
        if not isinstance(where, TensorGrid):
            pts = np.asarray(where, dtype=float)
            if pts.ndim != 2:
                raise ValueError("eta and its derivatives take an (M, dim) "
                                 f"point batch; got shape {pts.shape}")
            return self.store.get(where, key, lambda: fn(pts))
        pts = self.store.get(where, "points", where.points)
        return self.store.get(where, key,
                              lambda: fn(pts).reshape(where.shape))

    def _chain(self, where, order: int) -> list[np.ndarray]:
        """[F, F', F''] at |x|^2 up to at least ``order``."""
        chain = self.store.get(where, ("chain", self.s), list)
        if len(chain) <= order:
            rho = self._of_points(where, "rho",
                                  lambda p: np.sum(p**2, axis=1))
            chain[:] = _radial_derivs(rho, self.s, order, *chain[:1])
        return chain

    def eta(self, where) -> np.ndarray:
        """eta(x, s) = exp(sqrt(1 + s^2 |x|^2)); radial and
        reflection-invariant."""
        return self._chain(where, 0)[0]

    def directional(self, where, zeta, order: int) -> np.ndarray:
        """(d/dt)^order eta(x + t zeta, s) at t = 0, order 1 or 2: the chain
        rule on rho(t) = |x + t zeta|^2, whose only nonzero derivatives are
        rho' = 2 <x, zeta> and rho'' = 2 |zeta|^2."""
        if order not in (1, 2):
            raise ValueError("directional derivatives implemented for "
                             "orders 1, 2")
        zeta = np.asarray(zeta, dtype=float)
        rp = self._of_points(where, ("rho'", tuple(zeta)),
                             lambda p: 2.0 * (p @ zeta))
        F = self._chain(where, order)
        if order == 1:
            return F[1] * rp
        return F[2] * rp**2 + F[1] * (2.0 * float(zeta @ zeta))

    def radial_factor(self, where) -> np.ndarray:
        """F'(|x|^2) for F(rho) = exp(sqrt(1 + s^2 rho)); eta is radial, so
        it is the whole reflection quotient of d_zeta eta on axis j:
        (d_zeta eta(x) - d_zeta eta(sigma_j x)) / x_j = 4 F'(|x|^2) zeta_j."""
        return self._chain(where, 1)[1]


# ---------------------------------------------------------------------------
# weighted context
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gaussian_mass(geometry: tuple) -> float:
    """int exp(-|x|^2/2) dw by the quadrature of one grid geometry, once per
    process: a refined context's base grid is the refined grid of the
    context it came from, so both of their c_k need the same sum.  The
    weighted field is formed from the grid axes a few rows at a time
    (``TensorGrid.row_sum``), never whole on a grid of more than one
    block."""
    grid = TensorGrid(axes=tuple(AxisRule.build(*axis) for axis in geometry))

    def rows_of(rows: slice) -> np.ndarray:
        vals = grid.outer_sum(lambda d, x: x ** 2, rows)
        vals *= -0.5
        np.exp(vals, out=vals)
        vals *= grid.weight_rows(rows)
        return vals

    return grid.row_sum(rows_of)


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
        refinement-checked; cross-checked against (2 pi)^{dim/2} when k = 0.
        AccuracyError if it overflows float64 on either grid;
        DomainTooSmallError if the grid's boundary shell carries more than
        1e-6 of the Gaussian mass."""
        base, fine = (_gaussian_mass(grid.geometry)
                      for grid in (self.grid, self.grid_fine))
        if not (np.isfinite(base) and np.isfinite(fine)):
            raise AccuracyError(
                f"normalization constant c_k overflows float64 at ks "
                f"{self.system.ks.tolist()}: the Gaussian mass is {base} on "
                f"the grid and {fine} on the refined grid")
        fine = check_refined(base, fine, 1e-9, "normalization constant")
        # field and weights are products over the axes, so the shell's share
        # is 1 - prod_d (1 - s_d), s_d that of axis d; the bound is the
        # kernel-mass tolerance (compact-support-l1's 6 box: 7e-8 at k = 0.5)
        kept = sum(np.log1p(-boundary_shell_fraction(
            TensorGrid((ax,)), np.exp(-0.5 * ax.nodes ** 2)))
            for ax in self.grid.axes)
        guard_shell(float(-np.expm1(kept)), f"c_k's Gaussian at ks "
                    f"{self.system.ks.tolist()} on the {self.box:g} box", 1e-6)
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
        """A context on the same system with the grid keys that are not
        None changed; the context itself when none of them moves."""
        old = (self.box, self.n_half, self.freq_box, self.freq_n_half)
        new = tuple(now if key is None else key for now, key
                    in zip(old, (box, n_half, freq_box, freq_n_half)))
        return self if new == old else WeightedContext(self.system, *new)


def weighted_norm(ctx: WeightedContext, f, s: float) -> float:
    """L^2 norm of f against eta(., s) dw; s = 0 means plain L^2(dw).

    f is anything ``functions.sample`` reads on a grid.  The integrand must
    decay inside the box (boundary-shell check) and the value must be
    stable under grid refinement.
    """
    return _weighted_norm(ctx, lambda grid: np.abs(sample(f, grid)) ** 2,
                          EtaFields(s))


def _weighted_norm(ctx: WeightedContext, squared, fields: EtaFields) -> float:
    """``weighted_norm`` at ``fields.s`` of the function f whose |f|^2 on a
    grid is ``squared(grid)``, taking eta from ``fields``."""
    base = _norm_sq_on(ctx.grid, squared(ctx.grid), fields)
    return _norm_refined(base, _norm_sq_on(ctx.grid_fine,
                                           squared(ctx.grid_fine), fields))


def _norm_sq_on(grid: TensorGrid, squared: np.ndarray,
                fields: EtaFields) -> float:
    """||f||^2 against eta(., fields.s) dw on one grid, from the samples
    ``squared`` of |f|^2 there, which are left as they are."""
    # |f|^2 eta >= 0, so the shell check's mass is its integral
    integrand = squared if fields.s == 0.0 else squared * fields.eta(grid)
    return check_shell(grid, integrand, what="weighted norm")


def _norm_refined(base: float, fine: float) -> float:
    """The norm from its squares on the base and the refined grid: the
    refined one, checked against the base."""
    return float(np.sqrt(check_refined(base, fine, 1e-8, "weighted norm",
                                       floor=1.0)))
