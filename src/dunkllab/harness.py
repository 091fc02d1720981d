"""Quantitative checks for kernel decay, coercivity, and auxiliary bounds.

Every check here is a private body ``(ctx, spec, params)`` entered in the
one registry (``checks.CHECKS``), with its declared parameters;
``runner.run_check`` is the one way to run it, and hands the body every
declared parameter, validated and at its default when not given.  Every
criterion is a module constant (here, in ``fitting`` or in ``kernels``).

Each check turns a qualitative statement ("there exist C, c > 0 such that
...") into a deterministic pass/fail verdict: constants are fitted on a
calibration subset and the inequality must hold, with a fixed 1.05 slack,
on a disjoint held-out subset.  Exponents with a prescribed value, such as
2l/(2l-1), are imposed rather than fitted; only rates and amplitudes are
calibrated.  The single-point decay check is the exception: there the
exponent itself is the quantity under test, so it is fitted and compared.
"""

from __future__ import annotations

import numpy as np

from . import fitting
from .checks import (KERNEL_SCHEMA, SPEC, VECTOR_SCHEMA, Derived, Param,
                     grid_params, integer, number, numbers, register)
from .dunkl_kernel import kernel_imag_batch, kernel_imag_outer
from .errors import AccuracyError, CapabilityError
from .fitting import (alternating_split, envelope_fit,
                      envelope_fit_upper, envelope_holdout_ratio,
                      fit_decay_exponent, garding_lp, garding_holdout_ratio,
                      ratio_constant_fit, ratio_holdout_ratio)
from .forms import EPSILON_MAX, BilinearFormSpec, coercivity_terms
from .functions import (GridSampled, hermite_family, hermite_gauss,
                        radial_bump, sample)
from .kernels import (CONVOLUTION_GRID, FREQ_GRID, KernelSpec, check_context,
                      convolution_rule, dunkl_translate, evaluate_q,
                      finite_power, freq_rule, heat_kernel,
                      heat_kernel_two_point, q_on_grid, spatial_rule,
                      two_point_kernel)
from .measure import WeightedContext, volume_max_pairs
from .quadrature import refined_n_half, relative_move
from .report import VerificationReport, grid_metadata
from .root_systems import orbit_distance_pairwise
from .transform import dunkl_convolve, dunkl_transform

DECAY_RADII = (0.75, 6.0, 24)
#: criteria, read when a check runs and recorded in its report: thm1-decay's
#: relative exponent error, r^2 floor and exponent move on a refined grid;
#: e-bound's excess of |E| over 1; the relative drift of a constant-ratio
#: fit between its halves; exp-weighted-l1's relative move on a refined grid
DECAY_P_RTOL = 0.05
DECAY_R2_MIN = 0.995
DECAY_REFINE_TOL = 0.01
E_BOUND_TOL = 1e-10
STABILITY_TOL = 0.05
WEIGHTED_L1_REL_TOL = 0.02


def decay_rays(dim: int) -> np.ndarray:
    """Sampling directions: both signs in rank 1, 8 compass rays in dim 2."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    ang = np.arange(8) * (np.pi / 4.0)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def decay_samples(ctx: WeightedContext,
                  spec: KernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(radius, |q|) samples along the standard rays, at the radii
    ``np.geomspace(*DECAY_RADII)``."""
    radii = np.geomspace(*DECAY_RADII)
    rays = decay_rays(ctx.dim)
    pts = (radii[:, None, None] * rays[None, :, :]).reshape(-1, ctx.dim)
    vals = np.abs(evaluate_q(ctx, spec, pts))
    rr = np.repeat(radii, len(rays))
    return rr, vals


@register("thm1-decay",
          "single-point decay of the generalized heat kernel: fit |q_1(x)| ~ "
          "C exp(-c |x|^p) along rays; pass needs p within "
          f"{DECAY_P_RTOL:.0%} of 2l/(2l-1), r^2 >= {DECAY_R2_MIN:g}, and a "
          "refinement-stable exponent",
          *FREQ_GRID)
def _check_thm1_decay(ctx: WeightedContext, spec: KernelSpec,
                      params: dict) -> VerificationReport:
    """Fit |q_1(x)| ~ C exp(-c |x|^p) and compare p with 2l/(2l-1).

    Pass requires the fitted exponent within ``DECAY_P_RTOL`` of the
    prescribed value, r^2 of the log-fit at least ``DECAY_R2_MIN``, and
    exponent movement under a 1.5x-refined frequency grid below
    ``DECAY_REFINE_TOL``.  The refinement gate always runs.
    """
    p_theory = 2.0 * spec.ell / (2.0 * spec.ell - 1.0)
    qctx = check_context(ctx, params, **freq_rule(spec))
    radii, vals = decay_samples(qctx, spec)
    fit = fit_decay_exponent(np.column_stack([radii, vals]), p0=p_theory)
    fine = qctx.with_grids(
        freq_n_half=refined_n_half(qctx.freq_grid.axes[0].n_half))
    radii2, vals2 = decay_samples(fine, spec)
    fit2 = fit_decay_exponent(np.column_stack([radii2, vals2]), p0=p_theory)
    stab = relative_move(fit2.exponent_fitted, fit.exponent_fitted)
    p_err = abs(fit.exponent_fitted - p_theory) / p_theory
    defect = max(p_err / DECAY_P_RTOL,
                 max(0.0, DECAY_R2_MIN - fit.r_squared) / (1.0 - DECAY_R2_MIN),
                 stab / DECAY_REFINE_TOL)
    fitted = {
        "exponent_fitted": fit.exponent_fitted,
        "exponent_prescribed": p_theory,
        "exponent_rel_err": p_err,
        "c_fitted": fit.c_fitted,
        "C_fitted": fit.C_fitted,
        "r_squared": fit.r_squared,
        "n_samples": fit.n_samples,
        "sample_range": list(fit.sample_range),
        "radii": radii.tolist(),
        "abs_q": vals.tolist(),
        "exponent_refined": fit2.exponent_fitted,
        "refinement_rel_move": stab,
    }
    return VerificationReport.from_defect(
        "thm1-decay",
        {"spec": spec.to_dict(), "p_rtol": DECAY_P_RTOL,
         "r2_min": DECAY_R2_MIN},
        defect, 1.0, fitted=fitted, grid=grid_metadata(qctx),
        notes="defect is the worst criterion ratio: exponent error / tol, "
              "r^2 deficit / (1 - r2_min), refinement move / "
              f"{DECAY_REFINE_TOL:.0%}")


def make_pair_grid(ctx: WeightedContext) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (x, y) pairs: rays around a few base points, plus the
    zero-orbit-distance pairs (x, gx) for every group element."""
    centers = (np.array([[0.0], [0.6], [1.2]]) if ctx.dim == 1
               else np.array([[0.0, 0.0], [0.6, 0.3], [1.0, -0.5]]))
    radii = np.geomspace(0.5, 5.0, 12)
    rays = decay_rays(ctx.dim)
    xs, ys = [], []
    for x in centers:
        for u in rays:
            for r in radii:
                xs.append(x)
                ys.append(r * u)
        for g in ctx.group.matrices:
            xs.append(x)
            ys.append(g @ x)
    return np.asarray(xs), np.asarray(ys)


def _envelope_verdict(z: np.ndarray, vals: np.ndarray, p: float,
                      fit, labels=None) -> tuple[float, dict]:
    """(defect, fitted) of vals <= C exp(-c z^p): (c, C) = ``fit`` on the
    even half of the (z, vals)-sorted samples, the odd half held out with
    1.05 slack; the defect is the held-out ratio, at least 2 when c <= 0.
    ``labels`` (one per sample) name held-out samples that have no ratio
    (``envelope_holdout_ratio``)."""
    order = np.lexsort((vals, z))
    z, vals = z[order], vals[order]
    cal, held = alternating_split(len(z))
    c, C = fit(z[cal], vals[cal])
    held_labels = None if labels is None else np.asarray(labels)[order][held]
    ratio = envelope_holdout_ratio(z[held], vals[held], p, c, C,
                                   held_labels)
    return _rate_defect(ratio, c), {"c_fitted": c, "C_fitted": C,
                                    "holdout_ratio": ratio}


def _rate_defect(ratio: float, rate: float) -> float:
    """The held-out ratio as a defect, at least 2 when the calibrated rate
    (c, or garding's alpha) is not positive."""
    return ratio if rate > 0 else max(ratio, 2.0)


@register("thm2-two-point",
          "two-point bound: calibrate (c, C) in |q_1(x,y)| * "
          "max(w(B(x,1)), w(B(y,1))) <= C exp(-c d(x,y)^{2l/(2l-1)}) and "
          "verify the bound on held-out pairs with 1.05 slack",
          *FREQ_GRID)
def _check_two_point_bound(ctx: WeightedContext, spec: KernelSpec,
                           params: dict) -> VerificationReport:
    """Calibrate (c, C) in |q(x,y)| V(x,y,1) <= C exp(-c d(x,y)^{2l/(2l-1)})
    and verify the bound, with 1.05 slack, on the held-out pair half.  The
    bound is stated for q_1 on a fixed pair grid, while q_t spreads over
    distances of order t^{1/(2l)}: another time is a CapabilityError."""
    if spec.t != 1.0:
        raise CapabilityError(
            f"thm2-two-point bounds q_1; kernel t = {spec.t:g} would need "
            "its pairs rescaled to unit time")
    xs, ys = make_pair_grid(ctx)
    p = 2.0 * spec.ell / (2.0 * spec.ell - 1.0)
    qctx = check_context(ctx, params, **freq_rule(spec))
    q = two_point_kernel(qctx, spec, xs, ys)
    V = volume_max_pairs(ctx.system, xs, ys, 1.0)
    d = orbit_distance_pairwise(ctx.group, xs, ys)
    vals = np.abs(q) * V
    defect, fitted = _envelope_verdict(
        d, vals, p, lambda z, v: envelope_fit(z, v, p))
    return VerificationReport.from_defect(
        "thm2-two-point",
        {"spec": spec.to_dict(), "n_pairs": int(len(d)), "exponent": p},
        defect, 1.0, fitted={**fitted, "max_distance": float(np.max(d))},
        grid=grid_metadata(qctx),
        notes="pass needs c > 0 and every held-out value below the "
              "calibrated envelope with 1.05 slack")


@register("heat-gaussian-bound",
          "Gaussian heat bound: calibrate (c, C) in h_t(x,y) * "
          "max(w(B(x,sqrt(t))), w(B(y,sqrt(t)))) <= C exp(-c d(x,y)^2/t); "
          "at k=0 the fitted rate recovers the classical 1/4",
          numbers("t_set", [0.5, 1.0, 2.0], exclusiveMinimum=0))
def _check_heat_gaussian_bound(ctx: WeightedContext, spec: KernelSpec,
                               params: dict) -> VerificationReport:
    """Calibrate (c, C) in h_t(x,y) V(x,y,sqrt(t)) <= C exp(-c d(x,y)^2/t);
    the kernel is always the heat kernel, whatever ``spec``."""
    t_set = params["t_set"]
    xs, ys = make_pair_grid(ctx)
    d = orbit_distance_pairwise(ctx.group, xs, ys)
    zs, vals = [], []
    for t in t_set:
        h = heat_kernel_two_point(ctx, xs, ys, t)
        V = volume_max_pairs(ctx.system, xs, ys, float(np.sqrt(t)))
        zs.append(d**2 / t)
        vals.append(h * V)
    z = np.concatenate(zs)
    times = np.repeat([f"t = {t:g}" for t in t_set], [len(zt) for zt in zs])
    defect, fitted = _envelope_verdict(z, np.concatenate(vals), 1.0,
                                       envelope_fit_upper, times)
    return VerificationReport.from_defect(
        "heat-gaussian-bound",
        {"t_set": t_set, "n_pairs": int(len(z))},
        defect, 1.0, fitted=fitted, grid=grid_metadata(ctx),
        notes="variable is d(x,y)^2/t pooled over t; c is the upper-envelope "
              "rate (classical value 1/4 at k=0)")


# ---------------------------------------------------------------------------
# coercivity protocol
# ---------------------------------------------------------------------------

def default_garding_family(dim: int) -> list:
    """Deterministic calibration battery: Hermite polynomials x Gaussians."""
    if dim == 1:
        return hermite_family(4)
    fams = []
    for a in (0.4, 0.6):
        for n1 in range(3):
            for n2 in range(3):
                f1 = hermite_gauss(n1, a)
                f2 = hermite_gauss(n2, a)
                coeffs = np.outer(f1.coeffs, f2.coeffs)
                fams.append(type(f1)(coeffs, np.array([a, a])))
    return fams


@register("garding",
          "coercivity of the quadratic form: the largest alpha in "
          "-b_{s,eps}(f,f) + C s^{2l} ||f||_{H_s}^2 >= alpha "
          "||f||_{V_{l,s}}^2 on calibration functions, in closed form at the "
          "capped C, verified on held-out functions",
          Param("ell", {"type": "integer", "enum": [1, 2]},
                Derived("the kernel's l when it is 1 or 2, else 1")),
          number("eps", 0.0, minimum=0, maximum=EPSILON_MAX),
          Param("directions", KERNEL_SCHEMA["properties"]["directions"],
                Derived("the kernel's directions")),
          numbers("s_set", [0.5, 1.0, 2.0], exclusiveMinimum=0.25))
def _check_garding(ctx: WeightedContext, spec: KernelSpec,
                   params: dict) -> VerificationReport:
    """Coercivity protocol: maximize alpha with
        -form(f, f) + C s^{2l} ||f||_{H_s}^2 >= alpha ||f||_{V_{l,s}}^2
    on calibration functions of ``default_garding_family``.  Every row has
    s^{2l} ||f||_{H_s}^2 > 0, so the optimum over C <= ``fitting.GARDING_C_CAP``
    is the cap, and alpha is the closed form min_i (A_i + C S_i) / V_i
    (``fitting.garding_lp``).  Then require
    the inequality with slack 1.05 on held-out functions, pooled over s.
    The form's l, eps and directions come from ``params``, else from the
    kernel."""
    ell = params["ell"] or (spec.ell if spec.ell in (1, 2) else 1)
    form_spec = BilinearFormSpec(
        ell=ell, s=1.0, eps=params["eps"],
        directions=params["directions"] or spec.directions)
    s_set = params["s_set"]
    family = default_garding_family(ctx.dim)
    # rows[i] holds member i's rows, s inner; the split is by member
    rows = coercivity_terms(ctx, form_spec, family, s_set)
    (A_c, S_c, V_c), (A_h, S_h, V_h) = (
        map(np.array, zip(*(row for i in idxs for row in rows[i])))
        for idxs in alternating_split(len(family)))
    alpha, C = garding_lp(A_c, S_c, V_c)
    ratio = garding_holdout_ratio(A_h, S_h, V_h, alpha, C)
    return VerificationReport.from_defect(
        "garding",
        {"ell": form_spec.ell, "eps": form_spec.eps,
         "directions": [list(z) for z in form_spec.directions],
         "s_set": s_set, "n_family": len(family),
         "garding_c_cap": fitting.GARDING_C_CAP},
        _rate_defect(ratio, alpha), 1.0,
        fitted={"alpha": alpha, "C_alpha": C, "holdout_ratio": ratio},
        grid=grid_metadata(ctx),
        notes="pass needs alpha > 0 on calibration and the inequality with "
              "1.05 slack on held-out functions")


# ---------------------------------------------------------------------------
# auxiliary bounds
# ---------------------------------------------------------------------------

@register("e-bound",
          "kernel bound |E(i xi, x)| <= 1 on a product grid of arguments",
          integer("n", 50, minimum=1))
def _check_e_bound(ctx: WeightedContext, spec: KernelSpec,
                   params: dict) -> VerificationReport:
    n = params["n"]
    worst = 0.0
    for k in ctx.system.ks:
        xi = np.linspace(0.0, ctx.freq_box, n)
        x = np.linspace(0.0, ctx.box, n)
        re, im = kernel_imag_outer(xi, x, float(k))
        worst = max(worst, float(np.max(np.hypot(re, im))))
    defect = max(0.0, worst - 1.0)
    return VerificationReport.from_defect(
        "e-bound", {"n": n, "tol": E_BOUND_TOL}, defect, E_BOUND_TOL,
        fitted={"max_modulus": worst}, grid=grid_metadata(ctx))


def _lipschitz_pair_set(dim: int) -> tuple[np.ndarray, np.ndarray]:
    radii = np.geomspace(0.05, 2.0, 10)
    rays = decay_rays(dim)
    xi, x = [], []
    for rx in radii:
        for ux in rays:
            for rxi in radii[::3]:
                for uxi in rays:
                    x.append(rx * ux)
                    xi.append(rxi * uxi)
    return np.asarray(xi), np.asarray(x)


def _calibrated_constant(vals: np.ndarray, scales: np.ndarray) -> float:
    """The smallest C with vals <= C scales (``ratio_constant_fit``); a C
    that is not positive is no bound: AccuracyError."""
    C = ratio_constant_fit(vals, scales)
    if not C > 0:
        raise AccuracyError(f"calibrated constant C is {C:g}: every "
                            "calibration value underflows to 0")
    return C


def _constant_ratio_verdict(vals: np.ndarray, scales: np.ndarray,
                            cal: np.ndarray,
                            held: np.ndarray) -> tuple[float, dict]:
    """(defect, fitted) of vals <= C scales: C fitted on each half, the
    held-out half against the calibrated C with 1.05 slack; the defect is
    max(drift of C between the halves / STABILITY_TOL, held-out ratio);
    AccuracyError when every calibration value underflows to 0."""
    C_cal = _calibrated_constant(vals[cal], scales[cal])
    C_held = ratio_constant_fit(vals[held], scales[held])
    ratio = ratio_holdout_ratio(vals[held], scales[held], C_cal)
    stability = abs(C_held - C_cal) / C_cal
    return max(stability / STABILITY_TOL, ratio), {
        "C_cal": C_cal, "C_held": C_held, "stability": stability,
        "holdout_ratio": ratio}


@register("e-lipschitz",
          "kernel Lipschitz bound |E(i xi, x) - 1| <= C ||x|| ||xi|| with a "
          "calibration/held-out stable constant")
def _check_e_lipschitz(ctx: WeightedContext, spec: KernelSpec,
                       params: dict) -> VerificationReport:
    xi, x = _lipschitz_pair_set(ctx.dim)
    vals = np.abs(kernel_imag_batch(ctx.system, xi, x) - 1.0)
    scales = np.linalg.norm(xi, axis=1) * np.linalg.norm(x, axis=1)
    order = np.lexsort((vals, scales))
    vals, scales = vals[order], scales[order]
    cal, held = alternating_split(len(vals))
    defect, fitted = _constant_ratio_verdict(vals, scales, cal, held)
    return VerificationReport.from_defect(
        "e-lipschitz",
        {"n_pairs": int(len(vals)), "stability_tol": STABILITY_TOL},
        defect, 1.0, fitted=fitted, grid=grid_metadata(ctx),
        notes="|E(i xi, x) - 1| <= C |x||xi|; defect is the worse of the "
              f"cal/held constant drift over {STABILITY_TOL:.0%} and the "
              "held-out bound ratio")


@register("translation-lipschitz",
          "translation Lipschitz bound: sup_y |tau_x q_1(y) - q_1(y)| <= "
          "C ||x|| over a range of shifts; q_1 on the config's grid for "
          "l = 1, on a 48 box with 600 nodes per half-axis for l >= 2 "
          "(kernels.spatial_rule)",
          SPEC, *FREQ_GRID)
def _check_translation_lipschitz(ctx: WeightedContext, spec: KernelSpec,
                                 params: dict) -> VerificationReport:
    shifts = np.geomspace(0.05, 2.0, 24)
    qctx = check_context(ctx, params, **spatial_rule(spec), **freq_rule(spec))
    base = q_on_grid(qctx, spec)
    base_spectrum = dunkl_transform(qctx, base)
    sups = []
    for r in shifts:
        x = np.zeros(ctx.dim)
        x[0] = r
        moved = dunkl_translate(qctx, base_spectrum, x)
        sups.append(float(np.max(np.abs(moved.values - base.values))))
    sups = np.asarray(sups)
    # calibration takes the odd half so it contains the largest shift:
    # the sup/shift ratio grows with the shift, and the extreme point
    # belongs on the calibration side of the protocol
    held, cal = alternating_split(len(shifts))
    defect, fitted = _constant_ratio_verdict(sups, shifts, cal, held)
    return VerificationReport.from_defect(
        "translation-lipschitz",
        {"spec": spec.to_dict(), "stability_tol": STABILITY_TOL},
        defect, 1.0,
        fitted={**fitted, "shifts": shifts.tolist(),
                "sup_differences": sups.tolist()},
        grid=grid_metadata(qctx),
        notes="sup_y |tau_x q_1(y) - q_1(y)| <= C |x| over shifts in "
              "[0.05, 2] along the first axis")


# The bump grids: a spatial box just past the support of the convolutions
# (radius <= 4 plus the shift) and a frequency grid dense enough to resolve
# E(i xi, x) oscillation across that box.
@register("compact-support-l1",
          "compact-support convolution bound: ||tau_y(f * phi)||_{L1(dw)} <= "
          "C (r1 (r1 + r2))^{N_h/2} ||phi||_inf ||f||_{L1(dw)} across a grid "
          "of support radii",
          # one radius, or a repeated one, leaves no held-out pair
          Param("radii", {"type": "array", "minItems": 2,
                          "uniqueItems": True,
                          "items": {"type": "number", "exclusiveMinimum": 0}},
                [0.5, 1.0, 2.0]),
          Param("y", VECTOR_SCHEMA, Derived("(1, 0, ...)")),
          *grid_params(box=6.0, n_half=240, freq_box=20.0, freq_n_half=400))
def _check_compact_support_l1(ctx: WeightedContext, spec: KernelSpec,
                              params: dict) -> VerificationReport:
    radii = params["radii"]
    y_shift = np.asarray(params["y"] or [1.0] + [0.0] * (ctx.dim - 1))
    # the bound's scale of every (r1, r2) pair, checked before any bump is
    # sampled: at r1 = r2 = r it also bounds the r^2 each bump divides by
    support_scale = {(r1, r2): finite_power(
        r1 * (r1 + r2), ctx.homogeneous_dim / 2.0,
        "the bound's scale (r1 (r1 + r2))^(N_h/2)",
        f"radii r1 = {r1:g}, r2 = {r2:g}: lower the radii")
        for r2 in radii for r1 in radii}
    bctx = check_context(ctx, params)
    norms = np.sqrt(bctx.grid.outer_sum(lambda d, x: x * x))
    # f and phi are the same bumps, sampled on the grid axes
    bumps = {r: radial_bump(ctx.dim, r) for r in radii}
    f_l1 = {r: float(bctx.grid.integrate(np.abs(sample(bump, bctx.grid))))
            for r, bump in bumps.items()}
    for r, norm in f_l1.items():
        if not norm > 0:
            raise AccuracyError(f"the bump of radius {r:g} has L1 norm "
                                f"{norm:g}: no grid node lies in its support")
    spectra = {}

    def spectrum(r: float, keep: float):
        # at most two bump spectra are alive: a third drops the one that
        # its pair does not need before it is formed
        if r not in spectra:
            for old in [s for s in spectra if s != keep]:
                del spectra[old]
            spectra[r] = dunkl_transform(bctx, bumps[r])
        return spectra[r]

    def translated_l1(r1: float, r2: float) -> float:
        conv = dunkl_convolve(bctx, spectrum(r2, r1), spectrum(r1, r2))
        # the convolution of radial functions supported in radii r1, r2
        # is supported in radius r1 + r2; zero the outside so grid
        # ripple there cannot pollute the translation step
        support = norms <= r1 + r2 + 0.1
        conv = GridSampled(grid=bctx.grid, values=conv.values * support)
        moved = dunkl_translate(bctx, conv, y_shift)
        return float(bctx.grid.integrate(np.abs(moved.values)))

    # the spectra product commutes bit for bit and the support mask is
    # symmetric, so (r1, r2) and (r2, r1) give the same bits: each
    # unordered pair is convolved, masked and translated once.  Pair j
    # with j - 1, ..., 0, then with itself: each pair after the first
    # forms one spectrum, so 1 + n(n - 1)/2 spectra are formed in all
    # (a spectrum formed again has its bits)
    l1_of = {}
    for j, rj in enumerate(radii):
        for ri in [*reversed(radii[:j]), rj]:
            l1_of[ri, rj] = translated_l1(rj, ri)
    vals, scales, cal_mask = [], [], []
    for i2, r2 in enumerate(radii):   # support radius of f
        for i1, r1 in enumerate(radii):   # support radius of phi
            vals.append(l1_of[radii[min(i1, i2)], radii[max(i1, i2)]])
            scales.append(support_scale[r1, r2] * f_l1[r2])
            cal_mask.append(r1 >= r2)
    vals = np.asarray(vals)
    scales = np.asarray(scales)
    # the convolution is symmetric in (f, phi) but the bound's scale is
    # not: calibrate on the wide-phi orientation (r1 >= r2, where the
    # bound is tightest) and hold out the mirror pairs
    cal_mask = np.asarray(cal_mask)
    C_cal = _calibrated_constant(vals[cal_mask], scales[cal_mask])
    ratio = ratio_holdout_ratio(vals[~cal_mask], scales[~cal_mask], C_cal)
    return VerificationReport.from_defect(
        "compact-support-l1",
        {"radii": radii, "y": y_shift.tolist()},
        ratio, 1.0,
        fitted={"C_cal": C_cal, "holdout_ratio": ratio,
                "l1_values": vals.tolist(), "scales": scales.tolist(),
                "ratio_spread": float(np.max(vals / scales)
                                      / np.min(vals / scales))},
        grid=grid_metadata(bctx),
        notes="||tau_y(f * phi)||_L1 <= C (r1(r1+r2))^{N_h/2} "
              "||phi||_inf ||f||_L1 across the radius grid; calibration "
              "takes r1 >= r2, held-out the mirrored pairs")


def _orbit_distance_to(ctx: WeightedContext, y: np.ndarray,
                       rows: slice = slice(None)) -> np.ndarray:
    """d(x, y) at every node x of the spatial grid, in its shape; on the
    given ``rows`` (leading-axis indices) only, if given.

    The closed form of ``orbit_distance_pairwise`` is taken axis by axis,
    bit-identical to it on ``points()`` but without forming them.
    """
    def square(d, x):
        diff = np.abs(x) - np.abs(y[d])
        return diff * diff
    total = ctx.grid.outer_sum(square, rows)
    return np.sqrt(total, out=total)


@register("exp-weighted-l1",
          "exponentially weighted integrability: the integral of "
          "|tau_y(q_1^{(eps0)} * h_{eps0/2})(-x)| exp(c d(x,y)^{2l/(2l-1)}) "
          "dw(x) is finite and stable under grid refinement",
          number("eps0", 0.1, exclusiveMinimum=0),
          Param("ell", KERNEL_SCHEMA["properties"]["ell"], 2),
          number("c_weight", 0.05, minimum=0),
          Param("y", VECTOR_SCHEMA, Derived("(0.5, 0, ...)")),
          Param("directions", KERNEL_SCHEMA["properties"]["directions"],
                Derived("the axes")),
          *CONVOLUTION_GRID)
def _check_exp_weighted_l1(ctx: WeightedContext, spec: KernelSpec,
                           params: dict) -> VerificationReport:
    eps0, ell = params["eps0"], params["ell"]
    c_weight = params["c_weight"]
    y_shift = np.asarray(params["y"] or [0.5] + [0.0] * (ctx.dim - 1))
    spec = KernelSpec.from_config(
        {"directions": params["directions"], "ell": ell, "eps": eps0},
        ctx.dim)
    a_exp = 2.0 * ell / (2.0 * ell - 1.0)

    def weighted_integral(cctx: WeightedContext) -> float:
        # each spatial array is dropped once it is transformed or used, so
        # at most a few grid-sized arrays are alive on the largest grid
        q_spectrum = dunkl_transform(cctx, q_on_grid(cctx, spec))
        h_spectrum = dunkl_transform(cctx, GridSampled(
            grid=cctx.grid, values=heat_kernel(cctx, cctx.grid, eps0 / 2.0)))
        real = dunkl_convolve(cctx, q_spectrum, h_spectrum)
        del q_spectrum, h_spectrum
        spectrum = dunkl_transform(cctx, real)
        del real
        moved = dunkl_translate(cctx, spectrum, y_shift).values
        del spectrum
        flip = (slice(None, None, -1),) * cctx.dim

        def rows_of(rows: slice) -> np.ndarray:
            # |moved(-x)| e^{c d(x, y)^a} dw on the rows of one leaf, with
            # the bits of the same steps on the whole grid
            weight = _orbit_distance_to(cctx, y_shift, rows)
            weight **= a_exp
            weight *= c_weight
            np.exp(weight, out=weight)
            weight *= np.abs(moved[flip][rows])
            weight *= cctx.grid.weight_rows(rows)
            return weight

        value = float(cctx.grid.row_sum(rows_of))
        if not value > 0.0:
            raise AccuracyError(
                f"weighted integral is {value:.3g} at eps0 {eps0:g} on the "
                f"{cctx.box:g} box with n_half {cctx.n_half} and freq_box "
                f"{cctx.freq_box:g}: the integrand vanished; raise eps0")
        return value

    base_ctx = check_context(ctx, params, **convolution_rule(spec, eps0 / 2.0))
    fine_ctx = base_ctx.with_grids(n_half=refined_n_half(base_ctx.n_half))
    w_base = weighted_integral(base_ctx)
    w_fine = weighted_integral(fine_ctx)
    defect = relative_move(w_base, w_fine)
    return VerificationReport.from_defect(
        "exp-weighted-l1",
        {"eps0": eps0, "ell": ell, "c_weight": c_weight,
         "rel_tol": WEIGHTED_L1_REL_TOL, "y": y_shift.tolist()},
        defect, WEIGHTED_L1_REL_TOL,
        fitted={"weighted_integral": w_fine, "base_value": w_base},
        grid=grid_metadata(base_ctx),
        notes="int |tau_y(q_1^(eps0) * h_{eps0/2})(-x)| "
              "exp(c d(x,y)^{2l/(2l-1)}) dw finite and refinement-stable")
