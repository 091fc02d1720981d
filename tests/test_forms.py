"""The weighted bilinear forms, their perturbation, and the Sobolev-type norm."""

import numpy as np
import pytest

from dunkllab import (BilinearFormSpec, CapabilityError, KernelSpec,
                      SymbolError, WeightedContext, apply_dunkl, form_a_s,
                      form_b_s_eps, gaussian, hermite_gauss, monomial_gauss,
                      product_z2, rank1, sobolev_norm_V)
from dunkllab import forms
from dunkllab.forms import _t_g_eta, t_g_eta_values
from dunkllab.measure import EtaFields, eta


class TestSpecValidation:
    def test_order_must_be_one_or_two(self):
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=3, s=1.0)

    def test_weight_parameter_range(self):
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=1, s=0.1)  # strictly between 0 and 1/4
        BilinearFormSpec(ell=1, s=0.0)  # plain-L2 marker is allowed
        BilinearFormSpec(ell=1, s=0.3)

    def test_eps_window(self, monkeypatch):
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=1, s=1.0, eps=0.2)  # above default cap
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=1, s=1.0, eps=-0.1)
        # the cap is read when a spec is validated
        monkeypatch.setattr(forms, "EPSILON_MAX", 1.0)
        BilinearFormSpec(ell=1, s=1.0, eps=0.5)

    def test_directions_must_be_nonzero_and_span(self):
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=1, s=1.0, directions=((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            BilinearFormSpec(ell=1, s=1.0, directions=((1.0, 0.0), (2.0, 0.0)))
        BilinearFormSpec(ell=1, s=1.0, directions=((1.0, 0.0), (1.0, 1.0)))

    @pytest.mark.parametrize("directions, message", [
        (((0.0,),), "directions must be nonzero"),
        (((5e-324,),), "directions must be nonzero"),
        (((1.0, 0.0), (0.0, 0.0)), "directions must be nonzero"),
        (((1.0, 0.0), (2.0, 0.0)), "directions must span"),
        (((1.0, 1.0),), "directions must span")])
    def test_directions_rejected_as_the_kernel_rejects_them(self, directions,
                                                            message):
        # one direction rule, ``kernels.spanning_directions``, for both
        with pytest.raises(SymbolError, match=message):
            KernelSpec(directions=directions, ell=2)
        with pytest.raises(SymbolError, match=message):
            BilinearFormSpec(ell=2, s=1.0, directions=directions)

    def test_forms_reject_s_zero(self):
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=1, s=0.0)
        with pytest.raises(ValueError):
            form_a_s(ctx, spec, gaussian(1), gaussian(1))

    def test_forms_reject_non_polygauss(self):
        from dunkllab import radial_bump
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=1, s=1.0)
        with pytest.raises(CapabilityError):
            form_a_s(ctx, spec, radial_bump(1, 2.0), gaussian(1))


class TestEtaProductExpansion:
    """The closed-form T^l(g eta) against independent evaluations."""

    def test_order_one_matches_product_rule_numerically(self):
        ctx = WeightedContext(rank1(0.8))
        s, zeta = 0.7, np.array([1.0])
        g = hermite_gauss(2, 0.5)
        pts = np.linspace(-3, 3, 31)[:, None]
        got = t_g_eta_values(ctx, s, zeta, 1, g, pts)

        # independent path: difference-differential operator applied to the
        # product as a callable, gradient assembled by the product rule
        from dunkllab import CallableFunction
        from dunkllab.operators import dunkl_apply_values

        def u(p):
            return g(p) * eta(p, s)

        def grad_u(p):
            rho = np.sum(p**2, axis=1)
            eta_v = eta(p, s)
            deta = (s * s / np.sqrt(1 + s * s * rho))[:, None] * p * eta_v[:, None]
            gg = np.stack([g.deriv(d)(p) for d in range(1)], axis=1)
            return gg * eta_v[:, None] + g(p)[:, None] * deta

        fn = CallableFunction(fn=u, gradient=grad_u)
        expect = dunkl_apply_values(ctx.system, fn, zeta, pts)
        assert np.allclose(got, expect, rtol=1e-9, atol=1e-9)

    def test_order_two_classical_limit_is_second_derivative(self):
        ctx = WeightedContext(rank1(0.0))
        s, zeta = 1.0, np.array([1.0])
        g = gaussian(1, 0.5)
        pts = np.linspace(-2, 2, 17)[:, None]
        got = t_g_eta_values(ctx, s, zeta, 2, g, pts)
        h = 1e-4
        u = lambda p: g(p) * eta(p, s)
        fd = (u(pts + h) - 2 * u(pts) + u(pts - h)) / h**2
        assert np.allclose(got, fd, rtol=1e-6, atol=1e-6)

    def test_order_two_by_double_skew_symmetry(self):
        # int T^2(g eta) w dw = int (g eta) T^2 w dw, with the right side
        # using only the exact polynomial calculus
        ctx = WeightedContext(rank1(0.8))
        s, zeta = 0.6, np.array([1.0])
        g = hermite_gauss(1, 0.5)
        w = hermite_gauss(2, 0.6)
        grid = ctx.grid
        pts = grid.points()
        lhs_vals = t_g_eta_values(ctx, s, zeta, 2, g, pts) * w(pts)
        lhs = grid.integrate(lhs_vals.reshape(grid.shape))
        ttw = apply_dunkl(ctx.system, zeta, apply_dunkl(ctx.system, zeta, w))
        rhs_vals = g(pts) * eta(pts, s) * ttw(pts)
        rhs = grid.integrate(rhs_vals.reshape(grid.shape))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)

    def test_order_two_reflection_term_hand_computed(self):
        # subtracting the smooth product-rule part isolates the extra
        # reflection contribution; for an even g it collapses to
        # sum_d 4 k_d zeta_d^2 F'(|x|^2) g(x) with roots sqrt(2) e_d
        ctx = WeightedContext(product_z2([0.7, 0.3]))
        s = 0.8
        zeta = np.array([1.0, 0.4])
        g = gaussian(2, 0.5)
        pts = np.array([[0.9, 0.4], [0.3, -1.1], [1.5, 0.0]])
        full = t_g_eta_values(ctx, s, zeta, 2, g, pts)

        from dunkllab.measure import eta_directional, eta_radial_factor
        tg = apply_dunkl(ctx.system, zeta, g)
        ttg = apply_dunkl(ctx.system, zeta, tg)
        smooth = (eta(pts, s) * ttg(pts)
                  + 2 * eta_directional(pts, s, zeta, 1) * tg(pts)
                  + g(pts) * eta_directional(pts, s, zeta, 2))
        coef = 4 * (0.7 * zeta[0] ** 2 + 0.3 * zeta[1] ** 2)
        expect = coef * eta_radial_factor(pts, s) * g(pts)
        assert np.allclose(full - smooth, expect, rtol=1e-12, atol=1e-12)
        assert np.all(np.abs(expect) > 1e-4)


    def test_order_two_reflection_term_for_asymmetric_g(self):
        # g is neither even nor odd in either coordinate, so the extra
        # term needs g at the reflected points: sum_d 4 k_d zeta_d^2
        # F'(|x|^2) g(sigma_d x), with sigma_d flipping the sign of x_d
        ks = (0.7, 0.3)
        ctx = WeightedContext(product_z2(list(ks)))
        s = 0.8
        zeta = np.array([1.0, 0.4])
        g = (gaussian(2, 0.5) + monomial_gauss([1, 2], 0.5)
             + monomial_gauss([3, 1], 0.5).scale(0.3))
        pts = np.array([[0.9, 0.4], [0.3, -1.1], [1.5, 0.2]])
        full = t_g_eta_values(ctx, s, zeta, 2, g, pts)

        from dunkllab.measure import eta_directional, eta_radial_factor
        tg = apply_dunkl(ctx.system, zeta, g)
        ttg = apply_dunkl(ctx.system, zeta, tg)
        smooth = (eta(pts, s) * ttg(pts)
                  + 2 * eta_directional(pts, s, zeta, 1) * tg(pts)
                  + g(pts) * eta_directional(pts, s, zeta, 2))
        expect = 0.0
        for d, k in enumerate(ks):
            flipped = pts.copy()
            flipped[:, d] = -flipped[:, d]
            expect = expect + 4 * k * zeta[d] ** 2 * g(flipped)
        expect = expect * eta_radial_factor(pts, s)
        assert np.allclose(full - smooth, expect, rtol=1e-12, atol=1e-12)
        assert np.all(np.abs(expect - 4 * (0.7 + 0.3 * 0.16)
                             * eta_radial_factor(pts, s) * g(pts)) > 1e-3)

    @pytest.mark.parametrize("order", [1, 2])
    def test_grid_sampling_equals_pointwise_expansion(self, order):
        # the forms sample on grids; the public function takes points; both
        # run one expansion and must agree bit for bit, also when one set
        # of fields serves several directions
        ctx = WeightedContext(product_z2([0.7, 0.3]))
        g = gaussian(2, 0.5) + monomial_gauss([1, 2], 0.5)
        grid = ctx.grid
        fields = EtaFields(0.8)
        for zeta in (np.array([1.0, 0.4]), np.array([0.0, 1.0])):
            on_grid = _t_g_eta(ctx, zeta, order, g, grid, fields)
            at_points = t_g_eta_values(ctx, 0.8, zeta, order, g,
                                       grid.points())
            assert np.array_equal(on_grid, at_points.reshape(grid.shape))


class TestFormValues:
    def test_perturbed_form_reduces_to_base_at_eps_zero(self):
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=1, s=1.0, eps=0.0)
        f, g = gaussian(1), hermite_gauss(2)
        assert form_b_s_eps(ctx, spec, f, g) == form_a_s(ctx, spec, f, g)

    def test_full_strength_coordinate_perturbation_cancels_exactly(
            self, monkeypatch):
        # in one dimension with the coordinate direction and l = 1, the
        # perturbation integral is the negative of the base form, so
        # b_{s,eps=1} vanishes identically
        monkeypatch.setattr(forms, "EPSILON_MAX", 1.0)
        ctx = WeightedContext(rank1(0.75))
        spec = BilinearFormSpec(ell=1, s=0.5, eps=1.0, directions=((1.0,),))
        for f, g in [(gaussian(1), gaussian(1)),
                     (hermite_gauss(1), hermite_gauss(2)),
                     (monomial_gauss([2], 0.5), gaussian(1, 0.5))]:
            assert form_b_s_eps(ctx, spec, f, g) == pytest.approx(0.0, abs=1e-10)

    def test_negated_diagonal_form_positive_for_gaussian(self):
        for k in (0.0, 0.5, 1.0):
            ctx = WeightedContext(rank1(k))
            spec = BilinearFormSpec(ell=1, s=1.0)
            f = gaussian(1)
            assert -form_a_s(ctx, spec, f, f) > 0

    def test_diagonal_form_scales_quadratically(self):
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=2, s=0.5)
        f = gaussian(1)
        a1 = form_a_s(ctx, spec, f, f)
        a2 = form_a_s(ctx, spec, f.scale(3.0), f.scale(3.0))
        assert a2 == pytest.approx(9.0 * a1, rel=1e-12)

    def test_bilinearity_in_first_argument(self):
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=1, s=0.5)
        f1, f2, g = gaussian(1), hermite_gauss(2), hermite_gauss(1)
        lhs = form_a_s(ctx, spec, f1 + f2.scale(2.0), g)
        rhs = form_a_s(ctx, spec, f1, g) + 2.0 * form_a_s(ctx, spec, f2, g)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestSobolevNorm:
    def test_classical_first_order_norm_closed_form(self):
        # at k = 0, l = 1, s = 0: ||f||^2 + ||f'||^2 with f = e^{-x^2/2}
        # equals sqrt(pi) + sqrt(pi)/2
        ctx = WeightedContext(rank1(0.0))
        spec = BilinearFormSpec(ell=1, s=0.0)
        val = sobolev_norm_V(ctx, spec, gaussian(1))
        assert val == pytest.approx(np.sqrt(np.sqrt(np.pi) * 1.5), rel=1e-10)

    def test_norm_dominates_plain_l2(self):
        ctx = WeightedContext(rank1(0.5))
        spec = BilinearFormSpec(ell=2, s=0.5)
        from dunkllab import weighted_norm
        f = hermite_gauss(1)
        assert sobolev_norm_V(ctx, spec, f) > weighted_norm(ctx, f, 0.5)

    def test_norm_homogeneous(self):
        ctx = WeightedContext(rank1(1.0))
        spec = BilinearFormSpec(ell=1, s=0.5)
        f = gaussian(1)
        assert sobolev_norm_V(ctx, spec, f.scale(-2.0)) == pytest.approx(
            2.0 * sobolev_norm_V(ctx, spec, f), rel=1e-12)
