"""Weighted bilinear forms a_s and b_{s,eps} and the V_{l,s} Sobolev norm.

a_s(f, g)      = - sum_j int T_{zeta_j}^l f . T_{zeta_j}^l (g eta(., s)) dw
b_{s,eps}(f,g) = a_s(f, g) + eps sum_{d=1}^N int T_d f . T_d (g eta(., s)) dw
||f||_{V_{l,s}}^2 = ||f||_{H_s}^2 + sum_j ||T_{zeta_j}^l f||_{H_s}^2

The products T^l(g eta) are evaluated through closed-form expansions that
exploit radiality of eta: for radial v, T_zeta(u v) = v T_zeta u + u d_zeta v,
and the reflection-difference quotient of d_zeta eta collapses to
4 F'(|x|^2) <alpha, zeta>/|alpha|^2.  Everything else is exact PolyGauss
calculus, so quadrature error enters only through the final integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError
from .functions import PolyGauss
from .measure import EtaFields, WeightedContext, _weighted_norm
from .operators import apply_dunkl, positive_roots
from .quadrature import TensorGrid, check_refined, check_shell

#: largest admissible perturbation strength eps.
EPSILON_MAX = 0.1
FORM_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class BilinearFormSpec:
    """Order l, weight parameter s, perturbation eps, directions zeta_j.

    s = 0 selects the plain L^2(dw) member used by the norms; the bilinear
    forms themselves require s > 1/4.
    """

    ell: int
    s: float
    eps: float = 0.0
    directions: tuple = ((1.0,),)
    eps_max: float = EPSILON_MAX

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "directions", tuple(map(tuple, dirs)))
        if self.ell not in (1, 2):
            raise ValueError("form order l must be 1 or 2")
        if not (self.s == 0.0 or self.s > 0.25):
            raise ValueError("weight parameter s must exceed 1/4 (or be 0 "
                             "for the plain-L^2 norm)")
        if self.eps < 0 or (self.eps > 0 and self.eps > self.eps_max):
            raise ValueError(f"eps must lie in {{0}} or (0, {self.eps_max}]")
        if np.min(np.linalg.norm(dirs, axis=1)) == 0.0:
            raise ValueError("directions must be nonzero")
        if np.linalg.matrix_rank(dirs) < dirs.shape[1]:
            raise ValueError("directions must span the ambient space")

    @property
    def dim(self) -> int:
        return len(self.directions[0])

    def direction_arrays(self) -> list[np.ndarray]:
        return [np.asarray(z, dtype=float) for z in self.directions]


def t_g_eta_values(ctx: WeightedContext, s: float, zeta: np.ndarray,
                   order: int, g: PolyGauss, pts: np.ndarray) -> np.ndarray:
    """T_zeta^order (g eta(., s)) at points, orders 1 and 2, in closed form."""
    return _t_g_eta(ctx, zeta, order, g, pts, EtaFields(s))


def _sample(h: PolyGauss, where) -> np.ndarray:
    return h.values_on(where) if isinstance(where, TensorGrid) else h(where)


def _t_g_eta(ctx: WeightedContext, zeta: np.ndarray, order: int,
             g: PolyGauss, where, fields: EtaFields) -> np.ndarray:
    """T_zeta^order (g eta(., fields.s)) on a TensorGrid (grid-shaped values)
    or at an (M, dim) point array.

    Dunkl operators of PolyGauss inputs exist on product systems only, whose
    positive roots are sqrt(2) e_d: g o sigma_alpha is g.reflect_axis(d).
    """
    if order not in (1, 2):
        raise ValueError("closed-form expansion implemented for orders 1 and 2")
    if fields.s == 0.0:
        raise ValueError("s = 0 has no eta factor")
    eta_v = fields.eta(where)
    d1 = fields.directional(where, zeta, 1)
    tg = apply_dunkl(ctx.system, zeta, g)
    if order == 1:
        return eta_v * _sample(tg, where) + _sample(g, where) * d1
    d2 = fields.directional(where, zeta, 2)
    ttg = apply_dunkl(ctx.system, zeta, tg)
    out = (eta_v * _sample(ttg, where) + 2.0 * d1 * _sample(tg, where)
           + _sample(g, where) * d2)
    fprime = fields.radial_factor(where)
    for alpha, k in positive_roots(ctx.system):
        if k == 0.0:
            continue
        coef = k * float(alpha @ zeta) ** 2 * 4.0 / float(alpha @ alpha)
        axis = int(np.flatnonzero(alpha)[0])
        out = out + coef * fprime * _sample(g.reflect_axis(axis), where)
    return out


def _require_polygauss(*fs):
    for f in fs:
        if not isinstance(f, PolyGauss):
            raise CapabilityError(
                "bilinear forms are evaluated on the PolyGauss family only")


def _form_terms(ctx: WeightedContext, spec: "BilinearFormSpec",
                f: PolyGauss, g: PolyGauss, grid: TensorGrid,
                fields: EtaFields):
    """Per-direction integrals of T^l f . T^l(g eta) plus their gross mass."""
    total = 0.0
    gross = 0.0
    for zeta in spec.direction_arrays():
        tf = f
        for _ in range(spec.ell):
            tf = apply_dunkl(ctx.system, zeta, tf)
        integrand = tf.values_on(grid) * _t_g_eta(ctx, zeta, spec.ell, g,
                                                  grid, fields)
        check_shell(grid, integrand, what="bilinear form integrand")
        total += float(grid.integrate(integrand))
        gross += float(grid.integrate(np.abs(integrand)))
    return total, gross


def _refine_checked(ctx, evaluate) -> float:
    """The refined-grid value of ``evaluate``, checked against the base grid
    relative to max(|value|, 1e-6 of its gross mass)."""
    base, _ = evaluate(ctx.grid)
    fine, gross = evaluate(ctx.grid_fine)
    return check_refined(base, fine, FORM_REFINE_TOL, "form value",
                         floor=max(1e-6 * gross, 1e-300))


def form_a_s(ctx: WeightedContext, spec: BilinearFormSpec,
             f: PolyGauss, g: PolyGauss) -> float:
    """a_s(f, g); value from the refined grid, checked against the base grid."""
    return _form(ctx, replace(spec, eps=0.0), f, g, EtaFields(spec.s))


def form_b_s_eps(ctx: WeightedContext, spec: BilinearFormSpec,
                 f: PolyGauss, g: PolyGauss) -> float:
    """b_{s,eps}(f, g) = a_s(f, g) + eps sum_d int T_d f . T_d(g eta) dw."""
    return _form(ctx, spec, f, g, EtaFields(spec.s))


def _form(ctx: WeightedContext, spec: BilinearFormSpec, f: PolyGauss,
          g: PolyGauss, fields: EtaFields) -> float:
    """b_{s,eps}(f, g), which is a_s(f, g) at eps = 0, with eta from
    ``fields`` (at spec.s)."""
    _require_polygauss(f, g)
    if spec.s == 0.0:
        raise ValueError("bilinear forms need s > 1/4")
    if spec.eps == 0.0:
        def evaluate(grid):
            total, gross = _form_terms(ctx, spec, f, g, grid, fields)
            return -total, gross

        return _refine_checked(ctx, evaluate)
    coords = [np.eye(ctx.dim)[d] for d in range(ctx.dim)]
    coord_spec = BilinearFormSpec(ell=1, s=spec.s, eps=0.0,
                                  directions=tuple(tuple(c) for c in coords),
                                  eps_max=spec.eps_max)

    def evaluate(grid):
        total_a, gross_a = _form_terms(ctx, spec, f, g, grid, fields)
        total_c, gross_c = _form_terms(ctx, coord_spec, f, g, grid, fields)
        return -total_a + spec.eps * total_c, gross_a + spec.eps * gross_c

    return _refine_checked(ctx, evaluate)


def sobolev_norm_V(ctx: WeightedContext, spec: BilinearFormSpec,
                   f: PolyGauss) -> float:
    """(||f||_{H_s}^2 + sum_j ||T_{zeta_j}^l f||_{H_s}^2)^{1/2}."""
    _require_polygauss(f)
    fields = EtaFields(spec.s)
    return _sobolev_norm(ctx, spec, f, fields, _weighted_norm(ctx, f, fields))


def _sobolev_norm(ctx: WeightedContext, spec: BilinearFormSpec, f: PolyGauss,
                  fields: EtaFields, h_norm: float) -> float:
    """``sobolev_norm_V`` given ||f||_{H_s} = ``h_norm``."""
    total = h_norm ** 2
    for zeta in spec.direction_arrays():
        tf = f
        for _ in range(spec.ell):
            tf = apply_dunkl(ctx.system, zeta, tf)
        total += _weighted_norm(ctx, tf, fields) ** 2
    return float(np.sqrt(total))


def _coercivity_terms(ctx: WeightedContext, spec: BilinearFormSpec,
                      f: PolyGauss, fields: EtaFields
                      ) -> tuple[float, float, float]:
    """(-b_{s,eps}(f, f), ||f||_{H_s}^2, ||f||_{V_{l,s}}^2) at s = spec.s.

    eta comes from ``fields``, so one instance serves every f at that s.
    """
    A = -_form(ctx, spec, f, f, fields)
    h_norm = _weighted_norm(ctx, f, fields)
    return A, h_norm ** 2, _sobolev_norm(ctx, spec, f, fields, h_norm) ** 2
