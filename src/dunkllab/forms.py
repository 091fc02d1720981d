"""Weighted bilinear forms a_s and b_{s,eps} and the V_{l,s} Sobolev norm.

a_s(f, g)      = - sum_j int T_{zeta_j}^l f . T_{zeta_j}^l (g eta(., s)) dw
b_{s,eps}(f,g) = a_s(f, g) + eps sum_{d=1}^N int T_d f . T_d (g eta(., s)) dw
||f||_{V_{l,s}}^2 = ||f||_{H_s}^2 + sum_j ||T_{zeta_j}^l f||_{H_s}^2

The products T^l(g eta) are evaluated through closed-form expansions that
exploit radiality of eta: for radial v, T_zeta(u v) = v T_zeta u + u d_zeta v,
and the reflection-difference quotient of d_zeta eta on axis j collapses to
4 F'(|x|^2) zeta_j.  Everything else is exact PolyGauss calculus, so
quadrature error enters only through the final integral.

Each Dunkl image of a function is formed once per call (``DunklImages``)
and each image is sampled once per grid, so the form and the norms of one
function read the same arrays.  Every value is a per-grid evaluation
(``_form_on``, ``measure._norm_sq_on``) paired with its refined-grid twin
at the end.  ``coercivity_terms``, which gives garding its rows, runs the
same evaluators one grid at a time, keeps the images for the whole call
and the samples of a function for one grid, across every s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CapabilityError
from .functions import PolyGauss, sample
from .kernels import spanning_directions
from .measure import (EtaFields, SampleStore, WeightedContext,
                      _norm_refined, _norm_sq_on, _weighted_norm)
from .operators import apply_dunkl
from .quadrature import TensorGrid, check_refined, integrate_shell_checked
from .root_systems import as_points

#: largest admissible perturbation strength eps, read on every validation.
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

    def __post_init__(self):
        if self.ell not in (1, 2):
            raise ValueError("form order l must be 1 or 2")
        if not (self.s == 0.0 or self.s > 0.25):
            raise ValueError("weight parameter s must exceed 1/4 (or be 0 "
                             "for the plain-L^2 norm)")
        if self.eps < 0 or self.eps > EPSILON_MAX:
            raise ValueError(f"eps must lie in {{0}} or (0, {EPSILON_MAX}]")
        object.__setattr__(self, "directions",
                           spanning_directions(self.directions))


def t_g_eta_values(ctx: WeightedContext, s: float, zeta: np.ndarray,
                   order: int, g: PolyGauss, pts: np.ndarray) -> np.ndarray:
    """T_zeta^order (g eta(., s)) at ``pts`` (``as_points``), order 1 or 2."""
    return _t_eta(ctx, zeta, order, _Samples(DunklImages(ctx.system, g)),
                  as_points(pts, ctx.dim), EtaFields(s))


class DunklImages:
    """One function f with its Dunkl images T_zeta^j f.

    Each image is formed on first request and kept for the life of the
    object.  ``coercivity_terms`` holds one per family member for the whole
    call, so every image is formed once, however many s, grids and terms
    use it.
    """

    def __init__(self, system, f):
        self.system = system
        self.f = f
        self._held: dict = {}

    def power(self, zeta, j: int):
        """T_zeta^j f; j = 0 is f itself."""
        if j == 0:
            return self.f
        key = (tuple(zeta), j)
        if key not in self._held:
            self._held[key] = apply_dunkl(self.system, zeta,
                                          self.power(zeta, j - 1))
        return self._held[key]


class _Samples:
    """The images of one ``DunklImages`` on TensorGrids or (M, dim) point
    arrays (``functions.sample``), each sampled once and held in a
    ``SampleStore``.  ``coercivity_terms`` keeps one per (function, grid):
    the form and the norms at every s read the same arrays."""

    def __init__(self, images: DunklImages):
        self.images = images
        self._store = SampleStore()

    def power(self, where, zeta=None, j: int = 0) -> np.ndarray:
        """T_zeta^j f at ``where``; f itself by default."""
        key = (tuple(zeta), j) if j else ()
        return self._store.get(
            where, key, lambda: sample(self.images.power(zeta, j), where))

    def squared(self, where, zeta=None, j: int = 0) -> np.ndarray:
        """|T_zeta^j f|^2 at ``where``, formed anew on each call; it does
        not depend on s, so ``coercivity_terms`` forms it once per
        (function, grid)."""
        return np.abs(self.power(where, zeta, j)) ** 2

    def reflected(self, where, axis: int) -> np.ndarray:
        """f o sigma_axis at ``where``."""
        return self._store.get(
            where, ("reflected", axis),
            lambda: sample(self.images.f.reflect_axis(axis), where))


def _t_eta(ctx: WeightedContext, zeta: np.ndarray, order: int, g: _Samples,
           where, fields: EtaFields) -> np.ndarray:
    """T_zeta^order (g eta(., fields.s)) on a TensorGrid (grid-shaped values)
    or at an (M, dim) point array, with the values of g and its images read
    from ``g``.

    Dunkl operators of PolyGauss inputs exist on product systems only; axis
    j's order-2 reflection term is 4 k_j zeta_j^2 F'(|x|^2) g(sigma_j x).
    """
    if order not in (1, 2):
        raise ValueError("closed-form expansion implemented for orders 1 and 2")
    if fields.s == 0.0:
        raise ValueError("s = 0 has no eta factor")
    eta_v = fields.eta(where)
    d1 = fields.directional(where, zeta, 1)
    if order == 1:
        return eta_v * g.power(where, zeta, 1) + g.power(where) * d1
    d2 = fields.directional(where, zeta, 2)
    out = (eta_v * g.power(where, zeta, 2) + 2.0 * d1 * g.power(where, zeta, 1)
           + g.power(where) * d2)
    fprime = fields.radial_factor(where)
    for d, k in enumerate(ctx.system.ks):
        if k != 0.0:
            out = out + 4.0 * k * zeta[d] ** 2 * fprime * g.reflected(where, d)
    return out


def _require_polygauss(*fs):
    for f in fs:
        if not isinstance(f, PolyGauss):
            raise CapabilityError(
                "bilinear forms are evaluated on the PolyGauss family only")


def _form_terms(ctx: WeightedContext, ell: int, directions, f: _Samples,
                g: _Samples, grid: TensorGrid, fields: EtaFields):
    """Per-direction integrals of T^l f . T^l(g eta) plus their gross mass,
    the |integrand| dw sum that the shell check takes
    (``integrate_shell_checked``)."""
    total = 0.0
    gross = 0.0
    for zeta in directions:
        # the integrand is dropped before the next direction's is formed
        value, mass = integrate_shell_checked(
            grid, f.power(grid, zeta, ell) * _t_eta(ctx, zeta, ell, g, grid,
                                                    fields),
            what="bilinear form integrand")
        total += value
        gross += mass
    return total, gross


def _form_on(ctx: WeightedContext, spec: BilinearFormSpec, f: _Samples,
             g: _Samples, grid: TensorGrid,
             fields: EtaFields) -> tuple[float, float]:
    """(b_{s,eps}(f, g), its gross mass) on one grid, with eta from
    ``fields`` (at fields.s; ``spec.s`` is not read); a_s(f, g) at
    eps = 0."""
    total, gross = _form_terms(ctx, spec.ell, np.asarray(spec.directions), f,
                               g, grid, fields)
    if spec.eps == 0.0:
        return -total, gross
    total_c, gross_c = _form_terms(ctx, 1, np.eye(ctx.dim), f, g, grid,
                                   fields)
    return -total + spec.eps * total_c, gross + spec.eps * gross_c


def _form_refined(base: tuple[float, float],
                  fine: tuple[float, float]) -> float:
    """The form from its ``_form_on`` pairs on the base and refined grids:
    the refined value, checked against the base relative to max(|value|,
    1e-6 of its gross mass)."""
    (value, _), (fine_value, gross) = base, fine
    return check_refined(value, fine_value, FORM_REFINE_TOL, "form value",
                         floor=max(1e-6 * gross, 1e-300))


def form_a_s(ctx: WeightedContext, spec: BilinearFormSpec,
             f: PolyGauss, g: PolyGauss) -> float:
    """a_s(f, g), which is ``form_b_s_eps`` at eps = 0."""
    return form_b_s_eps(ctx, replace(spec, eps=0.0), f, g)


def form_b_s_eps(ctx: WeightedContext, spec: BilinearFormSpec,
                 f: PolyGauss, g: PolyGauss) -> float:
    """b_{s,eps}(f, g) = a_s(f, g) + eps sum_d int T_d f . T_d(g eta) dw;
    value from the refined grid, checked against the base grid.  f and g
    are sampled once per grid, as one set when ``g is f``."""
    _require_polygauss(f, g)
    if spec.s == 0.0:
        raise ValueError("bilinear forms need s > 1/4")
    fs = _Samples(DunklImages(ctx.system, f))
    gs = fs if g is f else _Samples(DunklImages(ctx.system, g))
    fields = EtaFields(spec.s)
    return _form_refined(*(_form_on(ctx, spec, fs, gs, grid, fields)
                           for grid in (ctx.grid, ctx.grid_fine)))


def sobolev_norm_V(ctx: WeightedContext, spec: BilinearFormSpec,
                   f: PolyGauss) -> float:
    """(||f||_{H_s}^2 + sum_j ||T_{zeta_j}^l f||_{H_s}^2)^{1/2}."""
    _require_polygauss(f)
    fields = EtaFields(spec.s)
    fs = _Samples(DunklImages(ctx.system, f))
    return _sobolev_norm(
        _weighted_norm(ctx, fs.squared, fields),
        [_weighted_norm(ctx, lambda grid: fs.squared(grid, zeta, spec.ell),
                        fields) for zeta in np.asarray(spec.directions)])


def _sobolev_norm(h_norm: float, image_norms) -> float:
    """``sobolev_norm_V`` given ||f||_{H_s} = ``h_norm`` and the
    ||T_{zeta_j}^l f||_{H_s} in ``image_norms``."""
    total = h_norm ** 2
    for norm in image_norms:
        total += norm ** 2
    return float(np.sqrt(total))


def coercivity_terms(ctx: WeightedContext, spec: BilinearFormSpec, family,
                     s_set) -> list[list[tuple[float, float, float]]]:
    """Garding's rows: for each f of ``family`` (PolyGauss) and, inner, each
    s of ``s_set``, (-b_{s,eps}(f, f), s^{2l} ||f||_{H_s}^2,
    ||f||_{V_{l,s}}^2) with the l, eps and directions of ``spec``.

    The grids run in turn, base then refined.  The Dunkl images of each f
    (small PolyGauss objects) are formed once for the call.  On a grid, f
    and its images are sampled once for every s, and the eta chains of
    every s share one store; the samples and the store are dropped with the
    grid.  |f|^2 and |T_zeta^l f|^2 do not depend on s either: each is
    formed once per grid, serves every s and is dropped before the next is
    formed.
    """
    _require_polygauss(*family)
    members = [DunklImages(ctx.system, f) for f in family]
    powers = [(None, 0)] + [(zeta, spec.ell)
                            for zeta in np.asarray(spec.directions)]

    def on(grid: TensorGrid, f: _Samples, fields: list) -> list:
        """Per s, what f's row reads from ``grid``: the ``_form_on`` pair of
        b_{s,eps}(f, f), and ||f||_{H_s}^2 followed by ||T_zeta^l f||_{H_s}^2
        per direction."""
        def norms(squared: np.ndarray) -> list[float]:
            return [_norm_sq_on(grid, squared, eta) for eta in fields]
        by_power = [norms(f.squared(grid, zeta, j)) for zeta, j in powers]
        return [(_form_on(ctx, spec, f, f, grid, eta), by_s)
                for eta, by_s in zip(fields, zip(*by_power))]

    on_grids = []
    for grid in (ctx.grid, ctx.grid_fine):
        store = SampleStore()
        fields = [EtaFields(s, store) for s in s_set]
        on_grids.append([on(grid, _Samples(images), fields)
                         for images in members])
    return [[_coercivity_terms(at_base, at_fine, s ** (2 * spec.ell))
             for s, at_base, at_fine in zip(s_set, base, fine)]
            for base, fine in zip(*on_grids)]


def _coercivity_terms(base: tuple, fine: tuple,
                      s_power: float) -> tuple[float, float, float]:
    """(-b_{s,eps}(f, f), s^{2l} ||f||_{H_s}^2, ||f||_{V_{l,s}}^2), with
    s^{2l} = ``s_power``, from the terms of f at one s on the base and the
    refined grid, each refinement-checked as ``form_b_s_eps``,
    ``weighted_norm`` and ``sobolev_norm_V`` check it, so the values are
    theirs bit for bit."""
    (form_base, norms_base), (form_fine, norms_fine) = base, fine
    h_norm, *image_norms = map(_norm_refined, norms_base, norms_fine)
    V = _sobolev_norm(h_norm, image_norms)
    return -_form_refined(form_base, form_fine), s_power * h_norm ** 2, V ** 2
