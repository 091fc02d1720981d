"""Semigroup kernels: spec validation, evaluators, and structural identities."""

import re
from dataclasses import replace

import numpy as np
import pytest

from dunkllab import (AccuracyError, CapabilityError, DomainTooSmallError,
                      KernelSpec, SymbolError, WeightedContext,
                      dunkl_transform, dunkl_translate, evaluate_q,
                      freq_box_for, gaussian, harness, heat_kernel,
                      heat_kernel_two_point, kernels, product_z2, q_on_grid,
                      rank1, run_check, translate_at_points, two_point_kernel)
from dunkllab.checks import CHECKS


class TestKernelSpecValidation:
    def test_order_range(self):
        with pytest.raises(ValueError):
            KernelSpec(directions=((1.0,),), ell=4)

    def test_time_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(directions=((1.0,),), ell=2, t=0.0)

    def test_eps_nonnegative(self):
        with pytest.raises(ValueError):
            KernelSpec(directions=((1.0,),), ell=2, eps=-0.1)

    def test_directions_must_span(self):
        with pytest.raises(SymbolError):
            KernelSpec(directions=((1.0, 0.0), (2.0, 0.0)), ell=2)

    def test_quadratic_symbol_positivity_guard(self):
        # for l = 1 the eps perturbation must stay below the smallest
        # eigenvalue of the direction Gram matrix
        with pytest.raises(SymbolError, match="symbol positivity violated"):
            KernelSpec(directions=((1.0, 0.0), (0.0, 1.0)), ell=1, eps=1.0)
        KernelSpec(directions=((1.0, 0.0), (0.0, 1.0)), ell=1, eps=0.99)

    def test_heat_constructor(self):
        spec = KernelSpec.heat(2, t=0.5)
        assert spec.ell == 1 and spec.eps == 0.0 and spec.t == 0.5
        assert np.allclose(spec.direction_arrays(), np.eye(2))

    def test_symbol_hand_computed(self):
        spec = KernelSpec(directions=((1.0, 0.0), (1.0, 1.0)), ell=2)
        xi = np.array([[1.0, 2.0]])
        # <(1,0),xi>^4 + <(1,1),xi>^4 = 1 + 81
        assert spec.symbol(xi)[0] == pytest.approx(82.0)
        pert = KernelSpec(directions=((1.0, 0.0), (1.0, 1.0)), ell=2, eps=0.1)
        assert pert.symbol(xi)[0] == pytest.approx(82.0 - 0.5)

    def test_min_direction_coefficient(self):
        heat2 = KernelSpec.heat(2)
        assert heat2.min_direction_coefficient() == pytest.approx(1.0, abs=1e-6)
        aniso = KernelSpec(directions=((1.0, 0.0), (1.0, 1.0)), ell=2)
        c = aniso.min_direction_coefficient()
        assert 0 < c < 1.0


class TestOneRuleEach:
    """The gate of an operator and its time, the q_t spectrum, the
    amplitude of a homogeneity law and the box margin, each said once in
    ``kernels``."""

    @pytest.mark.parametrize("kwargs", [
        {"ell": 4}, {"t": 0.0}, {"eps": -0.1}, {"directions": ((0.0,),)},
        {"directions": ((1e300,),)}, {"t": 5e-324}])
    def test_every_rejection_is_a_symbol_error(self, kwargs):
        with pytest.raises(SymbolError):
            KernelSpec(**{"directions": ((1.0,),), "ell": 1, **kwargs})

    def test_the_box_must_lie_in_zero_to_infinity(self):
        # a box of 0 (|zeta|^2 overflows) names the directions
        with pytest.raises(SymbolError, match="frequency box is 0,") as info:
            KernelSpec(directions=((1e300,),), ell=1)
        assert info.value.key == "directions"
        with pytest.raises(SymbolError, match="frequency box is nan,") as info:
            KernelSpec.heat(1, t=5e-324)
        assert info.value.key is None

    @pytest.mark.parametrize("evaluate", [
        lambda ctx, t: heat_kernel(ctx, [0.0], t),
        lambda ctx, t: heat_kernel(ctx, ctx.grid, t),
        lambda ctx, t: heat_kernel_two_point(ctx, [0.0], [1.0], t)],
        ids=["points", "grid", "two-point"])
    def test_heat_kernels_share_the_time_gate_and_amplitude(self, evaluate):
        ctx = WeightedContext(rank1(0.5), n_half=40)
        with pytest.raises(SymbolError, match="time t must be positive"):
            evaluate(ctx, 0.0)
        with pytest.raises(AccuracyError, match=re.escape(
                "heat kernel's amplitude (2t)^(-N_h/2) overflows at "
                "t = 4.94066e-324")):
            evaluate(ctx, 5e-324)

    @pytest.mark.parametrize("evaluate", [
        lambda ctx, spec: evaluate_q(ctx, spec, [0.0]),
        lambda ctx, spec: two_point_kernel(ctx, spec, [0.0], [0.5])],
        ids=["evaluate_q", "two_point_kernel"])
    def test_homogeneity_amplitude_overflow_names_the_power(self, evaluate):
        # N_h = 401: t^(-N_h/2) overflows at t = 1e-3, where the box is not
        ctx = WeightedContext(rank1(200.0), n_half=40)
        with pytest.raises(AccuracyError, match=re.escape(
                "amplitude t^(-N_h/(2l)) overflows at t = 0.001")):
            evaluate(ctx, KernelSpec.heat(1, t=1e-3))

    @pytest.mark.parametrize("evaluate", [
        lambda ctx, spec: evaluate_q(ctx, spec, [0.0]),
        lambda ctx, spec: two_point_kernel(ctx, spec, [0.0], [0.5]),
        q_on_grid], ids=["evaluate_q", "two_point_kernel", "q_on_grid"])
    def test_frequency_grid_without_a_shell_node_is_named(self, evaluate):
        ctx = WeightedContext(rank1(0.5), n_half=40, freq_box=5e-324)
        with pytest.raises(DomainTooSmallError,
                           match="no node of the frequency grid lies on its "
                                 "boundary shell"):
            evaluate(ctx, KernelSpec.heat(1))

    def test_box_margin_is_ceil_of_1_1_times_the_largest_box(self):
        specs = [KernelSpec.heat(1, t=t) for t in (0.25, 1.0)]
        assert kernels.freq_box_margin(*specs) == float(
            np.ceil(1.1 * freq_box_for(specs[0])))


class TestFrequencyBoxSizing:
    def test_heat_box_hits_target_level(self, monkeypatch):
        monkeypatch.setattr(kernels, "SYMBOL_SIZING_TOL", 1e-12)
        spec = KernelSpec.heat(1, t=1.0)
        b = freq_box_for(spec)
        assert np.exp(-spec.symbol(np.array([[b]]))[0]) == pytest.approx(
            1e-12, rel=1e-6)

    def test_box_shrinks_with_time(self):
        spec_fast = KernelSpec.heat(1, t=4.0)
        spec_slow = KernelSpec.heat(1, t=0.25)
        assert freq_box_for(spec_fast) < freq_box_for(spec_slow)

    def test_eps_perturbation_enlarges_box(self):
        base = KernelSpec(directions=((1.0,),), ell=2)
        pert = KernelSpec(directions=((1.0,),), ell=2, eps=0.1)
        assert freq_box_for(pert) > freq_box_for(base)


class TestHeatOracle:
    """With the quadratic symbol the quadrature evaluator must reproduce the
    closed-form heat kernel."""

    @pytest.mark.parametrize("k", [0.0, 1.0])
    def test_rank1(self, k):
        ctx = WeightedContext(rank1(k))
        spec = KernelSpec.heat(1, t=1.0)
        pts = np.array([[0.0], [0.7], [-1.9], [3.5]])
        got = evaluate_q(ctx, spec, pts)
        expect = heat_kernel(ctx, pts, 1.0)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_two_dim_product(self):
        ctx = WeightedContext(product_z2([0.5, 0.5]))
        spec = KernelSpec.heat(2, t=1.0)
        pts = np.array([[0.0, 0.0], [0.6, -0.8], [1.5, 2.0]])
        got = evaluate_q(ctx, spec, pts)
        expect = heat_kernel(ctx, pts, 1.0)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_rescaled_small_time_against_closed_form(self):
        # t far below the direct window exercises the homogeneity rescale
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec.heat(1, t=0.05)
        pts = np.array([[0.0], [0.2], [0.45]])
        got = evaluate_q(ctx, spec, pts)
        expect = heat_kernel(ctx, pts, 0.05)
        assert np.max(np.abs(got - expect) / expect) < 1e-9

    def test_rescaled_large_time_against_closed_form(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec.heat(1, t=9.0)
        pts = np.array([[0.0], [2.0], [5.0]])
        got = evaluate_q(ctx, spec, pts)
        expect = heat_kernel(ctx, pts, 9.0)
        assert np.max(np.abs(got - expect) / expect) < 1e-9


class TestGridFields:
    @pytest.mark.parametrize("system", [rank1(0.5), product_z2([0.25, 1.0])])
    def test_heat_kernel_on_grid_bytes_equal_points(self, system):
        ctx = WeightedContext(system, n_half=30)
        on_grid = heat_kernel(ctx, ctx.grid, 0.05)
        on_points = heat_kernel(ctx, ctx.grid.points(), 0.05)
        assert on_grid.shape == ctx.grid.shape
        assert on_grid.tobytes() == on_points.tobytes()


class TestGridEvaluator:
    def test_grid_matches_pointwise(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=2, t=1.0)
        sampled = q_on_grid(ctx, spec)
        direct = evaluate_q(ctx, spec, ctx.grid.points())
        assert np.max(np.abs(sampled.values.ravel() - direct)) < 1e-12

    def test_grid_rejects_out_of_window_time(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=2, t=10.0)
        with pytest.raises(CapabilityError, match=r"t in \[0.25, 4\]"):
            q_on_grid(ctx, spec)

    def test_quartic_kernel_has_unit_mass(self):
        # int q_t dw = exp(-t * symbol(0)) = 1; the order-2 kernel decays
        # slowly enough to need a wide spatial box
        spec = KernelSpec(directions=((1.0,),), ell=2, t=1.0)
        fbox = float(np.ceil(freq_box_for(spec) * 1.1))
        ctx = WeightedContext(rank1(0.5)).with_grids(
            box=48.0, n_half=600, freq_box=fbox, freq_n_half=200)
        mass = ctx.grid.integrate(q_on_grid(ctx, spec).values)
        assert mass == pytest.approx(1.0, abs=1e-7)


class TestTwoPointKernel:
    def test_heat_case_matches_bessel_closed_form(self):
        ctx = WeightedContext(rank1(1.0))
        spec = KernelSpec.heat(1, t=1.0)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, size=(8, 1))
        ys = rng.uniform(-2, 2, size=(8, 1))
        got = two_point_kernel(ctx, spec, xs, ys)
        expect = heat_kernel_two_point(ctx, xs, ys, 1.0)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_second_argument_zero_reduces_to_one_point(self):
        ctx = WeightedContext(rank1(0.5))
        spec = KernelSpec(directions=((1.0,),), ell=2, t=1.0)
        xs = np.array([[0.4], [1.3], [2.6]])
        got = two_point_kernel(ctx, spec, xs, np.zeros((3, 1)))
        expect = evaluate_q(ctx, spec, xs)
        assert np.max(np.abs(got - expect)) < 1e-12

    def test_symmetry_in_arguments(self):
        ctx = WeightedContext(product_z2([0.5, 0.5]))
        spec = KernelSpec(directions=((1.0, 0.0), (1.0, 1.0)), ell=2, t=1.0)
        x = np.array([0.8, -0.4])
        y = np.array([0.1, 1.2])
        qxy = two_point_kernel(ctx, spec, x, y)
        assert qxy.shape == (1,)
        assert qxy == pytest.approx(two_point_kernel(ctx, spec, y, x),
                                    rel=1e-10)

    def test_classical_two_point_heat_kernel(self):
        # at k = 0 the closed form collapses to the translation kernel
        ctx = WeightedContext(rank1(0.0))
        xs = np.array([[0.5], [1.0], [-0.7]])
        ys = np.array([[1.5], [-1.0], [0.3]])
        expect = ((4 * np.pi * 1.0) ** -0.5
                  * np.exp(-(xs - ys)[:, 0] ** 2 / 4.0))
        got = heat_kernel_two_point(ctx, xs, ys, 1.0)
        assert np.max(np.abs(got - expect)) < 1e-12


class TestTranslation:
    def test_translate_by_zero_is_identity(self):
        ctx = WeightedContext(rank1(1.0))
        f = gaussian(1)
        moved = dunkl_translate(ctx, f, [0.0])
        assert np.max(np.abs(moved.values - f.values_on(ctx.grid))) < 1e-11

    def test_translate_at_points_matches_grid(self):
        ctx = WeightedContext(rank1(0.5))
        f = gaussian(1)
        moved = dunkl_translate(ctx, f, [0.8])
        at_pts = translate_at_points(ctx, f, [0.8], ctx.grid.points())
        assert np.max(np.abs(at_pts - moved.values.ravel())) < 1e-11

    @pytest.mark.parametrize("system", [rank1(0.5), product_z2([0.5, 1.0])])
    def test_spectral_operand_matches_function_operand(self, system):
        ctx = WeightedContext(system, n_half=40)
        f = gaussian(system.dim, 0.6)
        x = [0.7] + [-0.3] * (system.dim - 1)
        direct = dunkl_translate(ctx, f, x).values
        via_spectrum = dunkl_translate(ctx, dunkl_transform(ctx, f), x).values
        assert via_spectrum.tobytes() == direct.tobytes()

    def test_classical_translation_shifts(self):
        # at k = 0 the frequency multiplier is e^{i xi x}, so the generalized
        # translation by x sends f to f(x + .)
        ctx = WeightedContext(rank1(0.0))
        f = gaussian(1)
        moved = dunkl_translate(ctx, f, [1.0])
        x = ctx.grid.points()[:, 0]
        assert np.max(np.abs(moved.values.ravel()
                             - np.exp(-(x + 1.0) ** 2 / 2))) < 1e-10


class TestIdentityChecks:
    @pytest.mark.parametrize("kind", [
        pytest.param("kernel-" + name, id=name) for name in
        ("mass", "symmetry", "positivity", "semigroup", "scaling",
         "decomposition")] + [pytest.param("kernel-laplacian",
                                           id="laplacian-consistency")])
    def test_all_kinds_pass_on_default_heat_setup(self, kind):
        ctx = WeightedContext(rank1(0.5))
        report = run_check(ctx, kind)
        assert report.passed, (kind, report.max_defect, report.tolerance)
        assert report.check.startswith("kernel-")
        assert report.max_defect <= report.tolerance

    def test_positivity_raises_on_non_finite_values(self):
        # at radius 1e6 the rank-one heat kernel is NaN on most pairs;
        # min(inf, nan) kept inf, so the check PASSED with min_value inf.
        # A NaN minimum is kept, also when only a later time has NaN
        # values (t = 1e-300 at radius 3), and the report's guard rejects it
        ctx = WeightedContext(rank1(0.5))
        for params in ({"radius": 1e6}, {"t_set": [1.0, 1e-300]}):
            with pytest.raises(AccuracyError,
                               match="fitted.min_value is nan"):
                run_check(ctx, "kernel-positivity", params)

    def test_positivity_still_fails_on_zero_values(self):
        # the k = 0 probe: exact zeros are a FAIL, not an error
        report = run_check(WeightedContext(rank1(0.0)), "kernel-positivity",
                           {"radius": 8.0})
        assert not report.passed
        assert report.fitted["min_value"] == 0.0

    def test_unknown_kind_lists_options(self):
        ctx = WeightedContext(rank1(0.5))
        with pytest.raises(ValueError, match="mass"):
            run_check(ctx, "no-such-check")

    def test_semigroup_property_quartic_symbol(self):
        ctx = WeightedContext(rank1(0.0))
        report = run_check(
            ctx, "kernel-semigroup",
            {"spec": {"directions": [[1.0]], "ell": 2, "t": 1.0}})
        assert report.passed

    @pytest.mark.parametrize("system", [rank1(0.5), product_z2([0.5, 0.25])])
    def test_spec_directions_default_to_the_axes(self, system):
        ctx = WeightedContext(system)
        axes = np.eye(system.dim).tolist()
        bare, explicit = (
            run_check(ctx, "kernel-symmetry", {"n_pairs": 5, "spec": spec})
            for spec in ({"ell": 2}, {"directions": axes, "ell": 2}))
        assert bare.to_json_dict() == explicit.to_json_dict()
        assert bare.params["spec"]["directions"] == axes
        assert bare.params["spec"]["ell"] == 2

    def test_scaling_law_quartic_symbol(self):
        ctx = WeightedContext(rank1(1.0))
        report = run_check(
            ctx, "kernel-scaling",
            {"spec": {"directions": [[1.0]], "ell": 2, "t": 1.0},
             "t_values": [0.5, 2.0]})
        assert report.passed

    def test_scaling_keeps_a_sufficient_frequency_box(self):
        report = run_check(WeightedContext(rank1(0.5)), "kernel-scaling")
        assert report.grid["freq_box"] == 13.0

    def test_scaling_enlarges_a_frequency_box_too_small_for_some_time(self):
        # at t = 0.5 this symbol needs a box of about 17 > 13
        ctx = WeightedContext(product_z2([0.25, 1.0]))
        spec = {"directions": [[1.0, 0.0], [1.0, 1.0]], "eps": 0.1}
        report = run_check(ctx, "kernel-scaling", {"spec": spec})
        need = freq_box_for(KernelSpec.from_config(dict(spec, t=0.5), 2))
        assert need > ctx.freq_box
        assert report.grid["freq_box"] == np.ceil(1.1 * need)
        assert report.passed


class _Stop(Exception):
    """Raised by a spy once it has seen the context of its first call."""


#: the first evaluator each grid-sizing kind calls, as (module, name)
FIRST_EVALUATOR = {
    "thm1-decay": (harness, "decay_samples"),
    "thm2-two-point": (harness, "two_point_kernel"),
    "translation-lipschitz": (harness, "q_on_grid"),
    "compact-support-l1": (harness, "dunkl_transform"),
    "exp-weighted-l1": (harness, "q_on_grid"),
    "kernel-semigroup": (kernels, "q_on_grid"),
    "kernel-decomposition": (kernels, "q_on_grid"),
    "kernel-scaling": (kernels, "evaluate_q"),
}
#: the grid keys a case gives, in the order "one" takes the first accepted
GIVEN_KEYS = {"box": 10.0, "n_half": 50, "freq_box": 9.0, "freq_n_half": 60}
SYSTEMS = {1: rank1(0.5), 2: product_z2([0.5, 0.5])}
#: (box, n_half, freq_box, freq_n_half) per kind and (dim, l), with no
#: grid key, the first key the kind accepts and every key it accepts
EXPECTED_GRIDS = {
    "compact-support-l1": {
        (1, 1): [(6.0, 240, 20.0, 400), (10.0, 240, 20.0, 400),
                 (10.0, 50, 9.0, 60)],
        (1, 2): [(6.0, 240, 20.0, 400), (10.0, 240, 20.0, 400),
                 (10.0, 50, 9.0, 60)],
        (2, 1): [(6.0, 240, 20.0, 400), (10.0, 240, 20.0, 400),
                 (10.0, 50, 9.0, 60)],
        (2, 2): [(6.0, 240, 20.0, 400), (10.0, 240, 20.0, 400),
                 (10.0, 50, 9.0, 60)],
    },
    "exp-weighted-l1": {
        (1, 1): [(12.0, 200, 34.0, 200), (10.0, 200, 34.0, 200),
                 (10.0, 50, 9.0, 60)],
        (1, 2): [(48.0, 600, 6.0, 200), (10.0, 600, 6.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 1): [(12.0, 80, 34.0, 200), (10.0, 80, 34.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 2): [(48.0, 600, 8.0, 200), (10.0, 600, 8.0, 200),
                 (10.0, 50, 9.0, 60)],
    },
    "kernel-decomposition": {
        (1, 1): [(12.0, 200, 13.0, 200), (10.0, 200, 32.0, 200),
                 (10.0, 50, 9.0, 60)],
        (1, 2): [(48.0, 600, 6.0, 200), (10.0, 600, 6.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 1): [(12.0, 80, 13.0, 80), (10.0, 80, 32.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 2): [(48.0, 600, 8.0, 200), (10.0, 600, 8.0, 200),
                 (10.0, 50, 9.0, 60)],
    },
    "kernel-scaling": {
        (1, 1): [(12.0, 200, 13.0, 200), (12.0, 200, 13.0, 200),
                 (12.0, 200, 13.0, 200)],
        (1, 2): [(12.0, 200, 13.0, 200), (12.0, 200, 13.0, 200),
                 (12.0, 200, 13.0, 200)],
        (2, 1): [(12.0, 80, 13.0, 80), (12.0, 80, 13.0, 80),
                 (12.0, 80, 13.0, 80)],
        (2, 2): [(12.0, 80, 13.0, 80), (12.0, 80, 13.0, 80),
                 (12.0, 80, 13.0, 80)],
    },
    "kernel-semigroup": {
        (1, 1): [(12.0, 200, 13.0, 200), (10.0, 200, 11.0, 200),
                 (10.0, 50, 9.0, 60)],
        (1, 2): [(48.0, 600, 4.0, 200), (10.0, 600, 4.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 1): [(12.0, 80, 13.0, 80), (10.0, 80, 11.0, 200),
                 (10.0, 50, 9.0, 60)],
        (2, 2): [(48.0, 600, 4.0, 200), (10.0, 600, 4.0, 200),
                 (10.0, 50, 9.0, 60)],
    },
    "thm1-decay": {
        (1, 1): [(12.0, 200, 8.0, 200), (12.0, 200, 9.0, 200),
                 (12.0, 200, 9.0, 60)],
        (1, 2): [(12.0, 200, 3.0, 200), (12.0, 200, 9.0, 200),
                 (12.0, 200, 9.0, 60)],
        (2, 1): [(12.0, 80, 8.0, 80), (12.0, 80, 9.0, 80),
                 (12.0, 80, 9.0, 60)],
        (2, 2): [(12.0, 80, 4.0, 80), (12.0, 80, 9.0, 80),
                 (12.0, 80, 9.0, 60)],
    },
    "thm2-two-point": {
        (1, 1): [(12.0, 200, 8.0, 200), (12.0, 200, 9.0, 200),
                 (12.0, 200, 9.0, 60)],
        (1, 2): [(12.0, 200, 3.0, 200), (12.0, 200, 9.0, 200),
                 (12.0, 200, 9.0, 60)],
        (2, 1): [(12.0, 80, 8.0, 80), (12.0, 80, 9.0, 80),
                 (12.0, 80, 9.0, 60)],
        (2, 2): [(12.0, 80, 4.0, 80), (12.0, 80, 9.0, 80),
                 (12.0, 80, 9.0, 60)],
    },
    "translation-lipschitz": {
        (1, 1): [(12.0, 200, 8.0, 200), (12.0, 200, 9.0, 200),
                 (12.0, 200, 9.0, 60)],
        (1, 2): [(48.0, 600, 3.0, 200), (48.0, 600, 9.0, 200),
                 (48.0, 600, 9.0, 60)],
        (2, 1): [(12.0, 80, 8.0, 80), (12.0, 80, 9.0, 80),
                 (12.0, 80, 9.0, 60)],
        (2, 2): [(48.0, 600, 4.0, 80), (48.0, 600, 9.0, 80),
                 (48.0, 600, 9.0, 60)],
    },
}


def check_grids(kind: str, dim: int, ell: int, keys: str) -> tuple:
    """(box, n_half, freq_box, freq_n_half) of the context ``kind`` hands
    its first evaluator, on the default context of ``SYSTEMS[dim]`` with
    the heat directions at order ``ell`` and no grid key (``keys`` "none"),
    the first key it accepts ("one") or every key it accepts ("all")."""
    module, name = FIRST_EVALUATOR[kind]
    seen = []

    def spy(ctx, *args):
        seen.append((ctx.box, ctx.n_half, ctx.freq_box, ctx.freq_n_half))
        raise _Stop

    accepted = [key for key in GIVEN_KEYS
                if key in CHECKS[kind].schema["properties"]]
    given = {"none": [], "one": accepted[:1], "all": accepted}[keys]
    params = {key: GIVEN_KEYS[key] for key in given}
    if kind == "exp-weighted-l1":
        params["ell"] = ell
    spec = replace(KernelSpec.heat(dim), ell=ell)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, spy)
        with pytest.raises(_Stop):
            run_check(WeightedContext(SYSTEMS[dim]), kind, params, spec)
    return seen[0]


class TestCheckGrids:
    """The grids each sizing kind runs on: a grid key given in the check's
    params, else the check's own rule, else the config's grid."""

    @pytest.mark.parametrize("kind", sorted(FIRST_EVALUATOR))
    def test_each_kind_runs_on_its_rule_s_grids(self, kind):
        for (dim, ell), rows in EXPECTED_GRIDS[kind].items():
            got = [check_grids(kind, dim, ell, keys)
                   for keys in ("none", "one", "all")]
            assert got == rows, (dim, ell)
