"""Fitting protocols on synthetic data, plus harness-level checks."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dunkllab import (BilinearFormSpec, InvalidRootSystemError, KernelSpec,
                      PolyGauss, WeightedContext, fitting, forms, harness,
                      hermite_family, kernels, product_z2, rank1, run_check,
                      transform)
from dunkllab.errors import (AccuracyError, CapabilityError,
                             DomainTooSmallError)
from dunkllab.fitting import (FitConvergenceError, alternating_split,
                              envelope_fit, envelope_fit_upper,
                              envelope_holdout_ratio, fit_decay_exponent,
                              garding_holdout_ratio, garding_lp,
                              ratio_constant_fit, ratio_holdout_ratio)
from dunkllab.forms import form_b_s_eps, sobolev_norm_V
from dunkllab.harness import decay_rays, decay_samples, make_pair_grid
from dunkllab.measure import weighted_norm
from dunkllab.report import MARGIN_CAP
from dunkllab.root_systems import orbit_distance_pairwise


class TestDecayExponentFit:
    def test_recovers_planted_parameters(self):
        r = np.geomspace(0.5, 8.0, 40)
        v = 2.5 * np.exp(-0.3 * r**1.8)
        rep = fit_decay_exponent(np.column_stack([r, v]))
        assert rep.exponent_fitted == pytest.approx(1.8, rel=1e-6)
        assert rep.c_fitted == pytest.approx(0.3, rel=1e-6)
        assert rep.C_fitted == pytest.approx(2.5, rel=1e-6)
        assert rep.r_squared > 1 - 1e-12
        assert rep.n_samples == 40
        assert rep.sample_range == (0.5, 8.0)

    def test_floor_discards_tiny_values(self):
        r = np.geomspace(0.5, 8.0, 40)
        v = 2.5 * np.exp(-0.3 * r**1.8)
        v[::2] = 1e-15  # pushed below the floor; 20 survivors is just enough
        rep = fit_decay_exponent(np.column_stack([r, v]))
        assert rep.n_samples == 20

    def test_too_few_samples_above_floor_rejected(self):
        r = np.geomspace(0.5, 8.0, 30)
        v = np.exp(-0.3 * r**1.8)
        v[:15] = 1e-15
        with pytest.raises(FitConvergenceError, match="at least"):
            fit_decay_exponent(np.column_stack([r, v]))

    def test_narrow_span_rejected(self):
        r = np.linspace(1.0, 2.0, 30)
        v = np.exp(-r)
        with pytest.raises(FitConvergenceError, match="span"):
            fit_decay_exponent(np.column_stack([r, v]))

    def test_nonpositive_radii_rejected(self):
        r = np.linspace(0.0, 8.0, 30)
        v = np.exp(-(r + 0.1))
        with pytest.raises(ValueError, match="positive"):
            fit_decay_exponent(np.column_stack([r, v]))

    def test_malformed_samples_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            fit_decay_exponent(np.ones((5, 3)))

    def test_noise_lowers_r_squared_but_not_exponent(self):
        rng = np.random.default_rng(0)
        r = np.geomspace(0.75, 6.0, 48)
        v = np.exp(-0.5 * r**1.5) * np.exp(rng.normal(0, 0.05, size=48))
        rep = fit_decay_exponent(np.column_stack([r, v]))
        assert rep.r_squared < 1.0
        assert rep.exponent_fitted == pytest.approx(1.5, rel=0.1)


class TestSplits:
    def test_alternating_split_indices(self):
        cal, held = alternating_split(7)
        assert cal.tolist() == [0, 2, 4, 6]
        assert held.tolist() == [1, 3, 5]

    def test_split_partitions(self):
        cal, held = alternating_split(10)
        assert sorted(cal.tolist() + held.tolist()) == list(range(10))


class TestEnvelopeFits:
    def test_plain_fit_exact_on_exponential(self):
        d = np.linspace(0.5, 4.0, 25)
        vals = 1.7 * np.exp(-0.9 * d**1.5)
        c, C = envelope_fit(d, vals, p=1.5)
        assert c == pytest.approx(0.9, rel=1e-9)
        assert C == pytest.approx(1.7, rel=1e-9)

    def test_upper_fit_ignores_below_envelope_points(self):
        # every z carries one point on the envelope and one far below it
        # (mirroring pair data, where several pairs share an orbit distance):
        # the per-z max plus hull must recover the envelope rate exactly
        z_lev = np.linspace(0.5, 6.0, 15)
        z = np.repeat(z_lev, 2)
        vals = np.repeat(2.0 * np.exp(-0.4 * z_lev), 2)
        vals[1::2] *= 0.05  # depressed companions
        c, C = envelope_fit_upper(z, vals)
        assert c == pytest.approx(0.4, rel=1e-10)
        assert C == pytest.approx(2.0, rel=1e-10)

    def test_upper_fit_drops_interior_dips(self):
        # singleton depressed z values strictly inside the range fall below
        # the hull and cannot tilt the fitted rate
        z = np.linspace(0.5, 6.0, 31)
        vals = 2.0 * np.exp(-0.4 * z)
        vals[1:-1:2] *= 0.05
        c, C = envelope_fit_upper(z, vals)
        assert c == pytest.approx(0.4, rel=1e-10)
        assert C == pytest.approx(2.0, rel=1e-10)

    def test_plain_fit_tilts_on_the_same_data(self):
        # contrast: when the below-envelope companions decay faster in z
        # (as cross-orbit pairs do), plain least squares mixes the two rates
        z_lev = np.linspace(0.5, 6.0, 15)
        z = np.repeat(z_lev, 2)
        vals = np.repeat(2.0 * np.exp(-0.4 * z_lev), 2)
        vals[1::2] *= np.exp(-0.3 * z_lev)
        c_ls, _ = envelope_fit(z, vals, p=1.0)
        assert abs(c_ls - 0.4) > 0.05
        c_hull, _ = envelope_fit_upper(z, vals)
        assert c_hull == pytest.approx(0.4, rel=1e-10)

    def test_upper_fit_keeps_max_of_duplicate_z(self):
        z = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        vals = np.array([0.2, np.exp(-1.0), 0.05, np.exp(-2.0), np.exp(-3.0)])
        c, C = envelope_fit_upper(z, vals)
        assert c == pytest.approx(1.0, rel=1e-10)
        assert C == pytest.approx(1.0, rel=1e-10)

    def test_upper_fit_needs_two_distinct_z(self):
        with pytest.raises(FitConvergenceError, match="distinct"):
            envelope_fit_upper(np.array([1.0, 1.0]), np.array([0.5, 0.6]))

    def test_bound_holds_on_calibration_data(self):
        rng = np.random.default_rng(1)
        z = np.sort(rng.uniform(0.3, 5.0, 40))
        vals = np.exp(-0.7 * z) * rng.uniform(0.2, 1.0, 40)
        c, C = envelope_fit_upper(z, vals)
        assert np.all(vals <= C * np.exp(-c * z) * (1 + 1e-12))

    def test_holdout_ratio_detects_violation(self):
        d = np.array([1.0, 2.0])
        ok = envelope_holdout_ratio(d, 0.9 * np.exp(-d), p=1.0, c=1.0, C=1.0)
        assert ok <= 1.0
        bad = envelope_holdout_ratio(d, 1.2 * np.exp(-d), p=1.0, c=1.0, C=1.0)
        assert bad > 1.0

    def test_holdout_ratio_capped_over_an_underflowed_envelope(self):
        # a positive value over an envelope that is 0 fails by MARGIN_CAP
        # (vals / 0 is infinite); a NaN value stays NaN
        d = np.array([1.0, 1e3])
        with np.errstate(divide="ignore"):
            ratio = envelope_holdout_ratio(d, np.array([0.5, 1e-3]), p=1.0,
                                           c=1.0, C=1.0)
        assert ratio == MARGIN_CAP
        assert np.isnan(envelope_holdout_ratio(d[:1], np.array([np.nan]),
                                               p=1.0, c=1.0, C=1.0))


class TestRatioProtocol:
    def test_constant_is_max_ratio(self):
        vals = np.array([1.0, 6.0, 2.0])
        scales = np.array([2.0, 3.0, 1.0])
        assert ratio_constant_fit(vals, scales) == 2.0

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(ValueError):
            ratio_constant_fit(np.ones(3), np.array([1.0, 0.0, 2.0]))

    def test_holdout_arithmetic(self):
        ratio = ratio_holdout_ratio(np.array([2.1]), np.array([1.0]), C=2.0)
        assert ratio == pytest.approx(2.1 / 2.1)

    def test_holdout_ratio_capped_over_a_zero_constant(self):
        with np.errstate(divide="ignore"):
            ratio = ratio_holdout_ratio(np.ones(1), np.ones(1), C=0.0)
        assert ratio == MARGIN_CAP


#: each bound form with its held-out values ``vals`` judged against one
#: bound ``b`` per sample: the envelope HOLDOUT_SLACK C exp(-c d^p) at c = 0,
#: the constant ratio HOLDOUT_SLACK C scales with unit scales, and garding's
#: A_i + C S_i at C = 0 with (alpha/HOLDOUT_SLACK) V_i at alpha = 1
BOUND_FORMS = {
    "envelope": lambda vals, b: envelope_holdout_ratio(
        np.zeros(len(vals)), vals, p=1.0, c=0.0, C=b / fitting.HOLDOUT_SLACK),
    "ratio": lambda vals, b: ratio_holdout_ratio(
        vals, np.ones(len(vals)), C=b / fitting.HOLDOUT_SLACK),
    "garding": lambda vals, b: garding_holdout_ratio(
        np.full(len(vals), b), np.ones(len(vals)),
        fitting.HOLDOUT_SLACK * vals, alpha=1.0, C=0.0),
}


class TestHeldOutJudgement:
    """One judgement of a held-out set, whatever the bound's form."""

    @pytest.fixture(params=sorted(BOUND_FORMS))
    def judge(self, request):
        return BOUND_FORMS[request.param]

    @pytest.mark.parametrize("vals", [[0.5, 2.0], [0.0, 0.5], [np.nan, 0.5]])
    @pytest.mark.parametrize("b", [-1.0, -1e-300])
    def test_a_negative_bound_fails_outright(self, judge, vals, b):
        assert judge(np.array(vals), b) == MARGIN_CAP

    def test_a_zero_bound_under_a_positive_value_fails_outright(self, judge):
        assert judge(np.array([0.5, 2.0]), 0.0) == MARGIN_CAP

    def test_zero_over_zero_has_no_ratio(self, judge):
        with pytest.raises(AccuracyError, match="1 held-out values and "
                                                "their bound both underflow"):
            judge(np.array([0.0, 0.5]), 0.0)

    def test_nan_passes_through(self, judge):
        assert np.isnan(judge(np.array([np.nan, 0.5]), 1.0))

    def test_ratio_is_capped(self, judge):
        with np.errstate(over="ignore"):
            assert judge(np.array([1e300, 0.5]), 1e-30) == MARGIN_CAP

    def test_labels_name_the_samples_without_a_ratio(self):
        with pytest.raises(AccuracyError, match="2 held-out values .* at "
                                                "t = 1, t = 2$"):
            fitting.holdout_ratio([0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                  ["t = 2", "t = 1", "t = 2"])


class TestCoercivityLP:
    def test_single_constraint_saturates_cap(self):
        # alpha <= A + C*S with V = 1: cap C = 100 binds
        alpha, C = garding_lp(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert alpha == pytest.approx(101.0, rel=1e-9)
        assert C == pytest.approx(100.0)

    def test_unhelpful_s_term_gives_minimal_c(self):
        # with S = 0 the cap is no longer the optimum of the program, so the
        # closed form refuses the rows and counts them
        with pytest.raises(FitConvergenceError, match="2 rows"):
            garding_lp(np.array([1.0, 2.0]), np.zeros(2), np.ones(2))

    def test_cap_is_read_when_the_program_is_solved(self, monkeypatch):
        monkeypatch.setattr(fitting, "GARDING_C_CAP", 5.0)
        alpha, C = garding_lp(np.ones(1), np.ones(1), np.ones(1))
        assert alpha == pytest.approx(6.0, rel=1e-9)
        assert C == pytest.approx(5.0)

    def test_negative_form_value_gives_negative_alpha(self):
        alpha, _ = garding_lp(np.array([-200.0]), np.ones(1), np.ones(1))
        assert alpha == pytest.approx(-100.0, rel=1e-9)

    def test_holdout_ratio_capped_when_denominator_nonpositive(self):
        # the inequality fails outright: a finite FAIL, not infinity
        ratio = garding_holdout_ratio(np.array([-1.0]), np.zeros(1),
                                      np.ones(1), alpha=1.0, C=0.0)
        assert ratio == MARGIN_CAP

    def test_holdout_ratio_arithmetic(self):
        ratio = garding_holdout_ratio(np.array([2.0]), np.array([1.0]),
                                      np.array([3.0]), alpha=1.0, C=1.0)
        assert ratio == pytest.approx((1.0 / 1.05) * 3.0 / 3.0)


class TestSamplingGeometry:
    def test_rank1_rays(self):
        assert decay_rays(1).tolist() == [[1.0], [-1.0]]

    def test_dim2_rays_are_unit_compass(self):
        rays = decay_rays(2)
        assert rays.shape == (8, 2)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)
        assert any(np.allclose(r, [np.sqrt(0.5), np.sqrt(0.5)]) for r in rays)

    def test_dim3_unsupported(self):
        # no sampling geometry is needed past dim 2: the system is refused
        with pytest.raises(InvalidRootSystemError):
            WeightedContext(product_z2([0.5, 0.5, 0.5]))

    def test_decay_samples_shape_and_positivity(self, monkeypatch):
        monkeypatch.setattr(harness, "DECAY_RADII", (0.75, 6.0, 10))
        ctx = WeightedContext(rank1(0.0))
        spec = KernelSpec.heat(1)
        rr, vals = decay_samples(ctx, spec)
        assert rr.shape == vals.shape == (20,)
        assert np.all(vals > 0)

    def test_pair_grid_includes_orbit_pairs(self):
        ctx = WeightedContext(rank1(0.5))
        xs, ys = make_pair_grid(ctx)
        assert len(xs) == len(ys)
        # 3 centers x (2 rays x 12 radii + 2 group elements)
        assert len(xs) == 3 * (2 * 12 + 2)
        from dunkllab import orbit_distance
        d_last = orbit_distance(ctx.group, xs[-1], ys[-1])
        assert d_last == pytest.approx(0.0, abs=1e-12)


class TestDecayCheck:
    def test_exact_quadratic_symbol_case(self):
        # l = 1 has the Gaussian closed form: exponent 2 and rate 1/4 exact
        ctx = WeightedContext(rank1(0.0))
        spec = KernelSpec.heat(1)
        report = run_check(ctx, "thm1-decay", None, spec)
        assert report.passed
        fitted = report.fitted
        assert fitted["exponent_fitted"] == pytest.approx(2.0, abs=1e-6)
        assert fitted["exponent_prescribed"] == pytest.approx(2.0)
        assert fitted["c_fitted"] == pytest.approx(0.25, rel=1e-6)
        assert fitted["r_squared"] > 0.9999

    def test_defect_reflects_exponent_error(self):
        ctx = WeightedContext(rank1(0.0))
        report = run_check(ctx, "thm1-decay", None, KernelSpec.heat(1))
        assert report.max_defect < 0.01

    @pytest.mark.parametrize("t", [8.0, 50.0])
    def test_frequency_box_sized_from_the_integrated_spec(self, t):
        # outside t in [0.25, 4] q_t is integrated at unit time; the box is
        # sized from that spec, not from the one at t (box 2 at t = 50)
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=1, t=t)
        report = run_check(ctx, "thm1-decay", None, spec)
        assert report.grid["freq_box"] == 8.0
        assert report.passed, report.max_defect

    def test_refinement_move_from_its_own_fields(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=2, t=1.0)
        fitted = run_check(ctx, "thm1-decay", None, spec).fitted
        move = (abs(fitted["exponent_refined"] - fitted["exponent_fitted"])
                / fitted["exponent_fitted"])
        assert move > 0.0
        assert fitted["refinement_rel_move"] == move


class TestTwoPointCheck:
    def test_rank1_quartic_bound(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=2, t=1.0)
        report = run_check(ctx, "thm2-two-point", None, spec)
        assert report.passed
        assert report.fitted["c_fitted"] > 0
        assert report.fitted["holdout_ratio"] <= 1.0


    def test_kernel_time_other_than_one_is_refused(self):
        # at t = 8 the fitted rate is negative and the check used to FAIL,
        # which reads as a violated bound
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=1, t=8.0)
        with pytest.raises(CapabilityError, match="kernel t = 8"):
            run_check(ctx, "thm2-two-point", None, spec)


class TestHeatBoundCheck:
    def test_classical_rate_recovered(self):
        ctx = WeightedContext(rank1(0.0))
        report = run_check(ctx, "heat-gaussian-bound")
        assert report.passed
        assert report.fitted["c_fitted"] == pytest.approx(0.25, rel=1e-6)


class TestGardingCheck:
    def test_small_family_first_order(self, monkeypatch):
        monkeypatch.setattr(harness, "default_garding_family",
                            lambda dim: hermite_family(2))
        ctx = WeightedContext(rank1(0.5))
        report = run_check(ctx, "garding", {"ell": 1, "s_set": [0.5, 1.0]})
        assert report.passed
        assert report.fitted["alpha"] > 0
        assert report.fitted["holdout_ratio"] <= 1.0


@pytest.fixture(scope="class")
def rank2_garding():
    """One default rank-2 garding run, traced by tracemalloc, with the
    Dunkl images it forms and the grids on which PolyGauss samples them:
    (context, report, image calls, sampled grid shapes, peak bytes)."""
    images, sampled = [], []
    real_apply, real_values_on = forms.apply_dunkl, PolyGauss.values_on

    def counting_apply(system, zeta, f):
        images.append(tuple(zeta))
        return real_apply(system, zeta, f)

    def counting_values_on(self, grid):
        sampled.append(grid.shape)
        return real_values_on(self, grid)

    ctx = WeightedContext(product_z2([0.5, 0.5]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "apply_dunkl", counting_apply)
        patch.setattr(PolyGauss, "values_on", counting_values_on)
        tracemalloc.start()
        try:
            report = run_check(ctx, "garding")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return ctx, report, images, sampled, peak


class TestGardingSharesWork:
    """garding forms each member's Dunkl images once and samples them once
    per grid for every s; its rows equal the public forms called one by
    one.  The three rank-2 default tests read one run (``rank2_garding``)."""

    def test_rank2_default_forms_each_image_once(self, rank2_garding):
        # 18 members x 2 axis directions at l = 1; forming them afresh for
        # every s, grid and term took 540 calls
        _, report, images, _, _ = rank2_garding
        assert report.passed
        assert len(images) == 36

    def test_rank2_default_samples_each_image_once_per_grid(self,
                                                             rank2_garding):
        # 18 members x (f and 2 images) x 2 grids; sampling them afresh for
        # each of the 3 values of s took 324 calls
        ctx, report, _, sampled, _ = rank2_garding
        assert report.passed
        assert len(sampled) == 108
        assert sorted(set(sampled)) == [ctx.grid.shape, ctx.grid_fine.shape]

    def test_rank2_default_peak_holds_one_grid_of_fields(self, rank2_garding):
        # the fields of every s are held for one grid at a time: holding
        # every field and sample on both grids peaked above 10 MiB; the
        # s-outer loop that held one s on both grids peaked 8.6 MiB
        _, report, _, _, peak = rank2_garding
        assert report.passed
        assert peak <= (8.7 + 1.0) * 2**20

    @pytest.mark.parametrize("system, ell, eps, directions", [
        (rank1(0.5), 2, 0.0, ((1.0,),)),
        (product_z2([0.7, 0.3]), 1, 0.05, ((1.0, 0.0), (1.0, 1.0)))])
    def test_rows_equal_public_forms_bit_for_bit(self, monkeypatch, system,
                                                 ell, eps, directions):
        rows = []
        real_lp = harness.garding_lp

        def recording(A, S, V, **kwargs):
            rows.append((A, S, V))
            return real_lp(A, S, V, **kwargs)

        monkeypatch.setattr(harness, "garding_lp", recording)
        ctx = WeightedContext(system)
        spec = BilinearFormSpec(ell=ell, s=1.0, eps=eps,
                                directions=directions)
        family = harness.default_garding_family(ctx.dim)[:4]
        monkeypatch.setattr(harness, "default_garding_family",
                            lambda dim: family)
        s_set = (0.5, 2.0)
        run_check(ctx, "garding",
                  {"ell": ell, "eps": eps,
                   "directions": [list(z) for z in directions],
                   "s_set": list(s_set)})
        (A, S, V), = rows
        cal, _ = alternating_split(len(family))
        expect = []
        for i in cal:
            for s in s_set:
                spec_s = replace(spec, s=s)
                f = family[i]
                expect.append((-form_b_s_eps(ctx, spec_s, f, f),
                               s ** (2 * ell) * weighted_norm(ctx, f, s) ** 2,
                               sobolev_norm_V(ctx, spec_s, f) ** 2))
        assert A.tolist() == [a for a, _, _ in expect]
        assert S.tolist() == [h for _, h, _ in expect]
        assert V.tolist() == [v for _, _, v in expect]


class TestAuxiliaryDispatch:
    def test_unknown_kind_lists_known(self):
        ctx = WeightedContext(rank1(0.5))
        with pytest.raises(ValueError, match="e-bound"):
            run_check(ctx, "nonsense")

    def test_exp_weighted_defect_from_its_own_fields(self):
        report = run_check(WeightedContext(rank1(0.5)), "exp-weighted-l1")
        fine = report.fitted["weighted_integral"]
        move = abs(report.fitted["base_value"] - fine) / abs(fine)
        assert move > 0.0
        assert report.max_defect == move

    def test_modulus_bound_check(self):
        ctx = WeightedContext(rank1(0.5))
        report = run_check(ctx, "e-bound")
        assert report.passed
        assert report.max_defect <= 1e-10

    def test_underflowed_calibration_constant_is_an_accuracy_error(self):
        cal, held = alternating_split(6)
        with pytest.raises(AccuracyError, match="calibrated constant C is 0"):
            harness._constant_ratio_verdict(np.zeros(6), np.ones(6), cal,
                                            held)

    def test_kernel_lipschitz_stability(self):
        ctx = WeightedContext(rank1(1.0))
        report = run_check(ctx, "e-lipschitz")
        assert report.passed
        assert report.fitted["C_cal"] > 0
        assert report.fitted["stability"] <= 0.05

    @pytest.mark.parametrize("kind, params, probe, n_half_of", [
        ("thm1-decay", {"freq_n_half": 81}, "decay_samples",
         lambda ctx: ctx.freq_grid.axes[0].n_half),
        ("exp-weighted-l1", {"n_half": 81, "ell": 1, "freq_box": 20.0},
         "q_on_grid", lambda ctx: ctx.n_half)])
    def test_refined_grid_rounds_odd_node_counts_up(self, monkeypatch, kind,
                                                    params, probe, n_half_of):
        # one rule with TensorGrid.refined: ceil(1.5 * 81) = 122, not 121
        seen = []
        real = getattr(harness, probe)

        def recording(ctx, *args, **kwargs):
            seen.append(n_half_of(ctx))
            return real(ctx, *args, **kwargs)

        monkeypatch.setattr(harness, probe, recording)
        run_check(WeightedContext(rank1(0.5)), kind, params)
        assert seen == [81, 122]
        assert WeightedContext(rank1(0.5), n_half=81).grid_fine.axes[0] \
            .n_half == 122

    def test_compact_support_translates_each_unordered_pair_once(
            self, monkeypatch):
        # 3 bump spectra, then per unordered radius pair one inverse
        # transform (convolution) and two (translation): 3 + 6 x 3 = 21;
        # every ordered pair took 3 + 9 x 3 = 30
        calls = []
        for name in ("dunkl_transform", "inverse_dunkl_transform"):
            real = getattr(transform, name)

            def counting(*args, real=real, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)

            for module in (transform, harness, kernels):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        report = run_check(WeightedContext(rank1(0.5)), "compact-support-l1")
        assert report.passed
        assert len(calls) == 21
        # the mirrored pairs keep their bit-identical L1 values
        vals = np.reshape(report.fitted["l1_values"], (3, 3))
        assert np.array_equal(vals, vals.T)

    def test_exp_weighted_aliasing_names_the_frequency_box(self):
        # 81 nodes per half-axis of the 12 box resolve frequencies up to
        # about 21; the derived frequency box of 34 aliases the spectra, and
        # a wider box would only make it worse
        ctx = WeightedContext(rank1(0.5))
        with pytest.raises(DomainTooSmallError,
                           match="lower freq_box or raise n_half"):
            run_check(ctx, "exp-weighted-l1", {"n_half": 81, "ell": 1})
        report = run_check(ctx, "exp-weighted-l1",
                           {"n_half": 81, "ell": 1, "freq_box": 20.0})
        assert report.passed

    def test_exp_weighted_small_box_keeps_the_box_advice(self):
        ctx = WeightedContext(rank1(0.5))
        with pytest.raises(DomainTooSmallError,
                           match="enlarge the grid box"):
            run_check(ctx, "exp-weighted-l1", {"box": 5.0, "ell": 1})

    def test_translation_lipschitz_transforms_q_once(self, monkeypatch):
        calls = []
        real = transform.dunkl_transform

        def counting(ctx, f, **kwargs):
            calls.append(f)
            return real(ctx, f, **kwargs)

        for module in (transform, harness, kernels):
            monkeypatch.setattr(module, "dunkl_transform", counting)
        report = run_check(WeightedContext(rank1(0.5)),
                           "translation-lipschitz")
        assert report.passed
        assert len(calls) == 1


class TestGridOrbitDistance:
    @pytest.mark.parametrize("system, y", [
        (rank1(0.5), [0.5]), (rank1(0.5), [-0.7]),
        (product_z2([0.5, 1.0]), [0.5, 0.0]),
        (product_z2([0.5, 1.0]), [-1.25, 0.75]),
        (product_z2([0.0, 0.5]), [0.5, -0.75])])
    def test_bytes_equal_pairwise_on_points(self, system, y):
        ctx = WeightedContext(system, n_half=25)
        y = np.asarray(y)
        pts = ctx.grid.points()
        expect = orbit_distance_pairwise(ctx.group, pts,
                                         np.broadcast_to(y, pts.shape))
        got = harness._orbit_distance_to(ctx, y)
        assert got.shape == ctx.grid.shape
        assert got.tobytes() == expect.tobytes()
