"""Polynomial-times-Gaussian calculus and the difference-differential operators."""

from pathlib import Path

import numpy as np
import pytest
from scipy.signal import convolve

from dunkllab import (CallableFunction, CapabilityError, PolyGauss,
                      WeightedContext, apply_dunkl, apply_dunkl_iterated,
                      dunkl_laplacian, gaussian, hermite_family,
                      hermite_gauss, monomial_gauss, product_z2, radial_bump,
                      rank1)
from dunkllab.functions import GridSampled, _convolve, sample
from dunkllab.measure import (EtaFields, SampleStore, eta, eta_directional,
                              eta_radial_factor)
from dunkllab.operators import dunkl_apply_values
from dunkllab.quadrature import TensorGrid

RNG = np.random.default_rng(42)
PTS1 = RNG.normal(size=(40, 1))
PTS2 = RNG.normal(size=(40, 2))


class TestPolyGaussAlgebra:
    def test_addition_matches_pointwise(self):
        f = hermite_gauss(2)
        g = hermite_gauss(4)
        assert np.allclose((f + g)(PTS1), f(PTS1) + g(PTS1))

    def test_scale_and_subtract(self):
        f = hermite_gauss(3)
        assert np.allclose((f - f.scale(0.5))(PTS1), 0.5 * f(PTS1))

    def test_mul_poly_matches_pointwise(self):
        f = gaussian(2, 0.5)
        r = np.zeros((3, 3))
        r[0, 0], r[2, 0], r[0, 2] = 1.0, 1.0, 1.0  # 1 + x^2 + y^2
        prod = f.mul_poly(r)
        expect = f(PTS2) * (1 + np.sum(PTS2**2, axis=1))
        assert np.allclose(prod(PTS2), expect)

    def test_derivative_closed_form(self):
        # d/dx [x e^{-x^2/2}] = (1 - x^2) e^{-x^2/2}
        f = monomial_gauss([1], 0.5)
        x = PTS1[:, 0]
        assert np.allclose(f.deriv(0)(PTS1), (1 - x**2) * np.exp(-x**2 / 2))

    def test_divide_coordinate_round_trip(self):
        f = hermite_gauss(2)
        assert np.allclose(f.mul_coordinate(0).divide_coordinate(0)(PTS1),
                           f(PTS1))

    def test_divide_coordinate_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            gaussian(1).divide_coordinate(0)

    def test_reflect_axis_flips_argument(self):
        f = hermite_gauss(3, 0.4)
        flipped = f.reflect_axis(0)
        assert np.allclose(flipped(PTS1), f(-PTS1))

    def test_mismatched_exponent_arithmetic_rejected(self):
        with pytest.raises(ValueError):
            gaussian(1, 0.5) + gaussian(1, 0.6)

    def test_hermite_family_is_deterministic_battery(self):
        fam = hermite_family(4)
        assert len(fam) == 15
        assert all(isinstance(f, PolyGauss) for f in fam)
        assert max(f.coeffs.size - 1 for f in fam) == 4


def _signed_zero_coeffs(rng, shape):
    """Normal coefficients with about a third of them replaced by +0 or -0."""
    c = rng.normal(size=shape)
    zeros = rng.random(shape) < 0.35
    c[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return c


def _shift_kernel(dim, axis, sign=1.0):
    """The factor x_axis of ``mul_coordinate``, optionally negated."""
    shape = [1] * dim
    shape[axis] = 2
    p = np.zeros(shape)
    p[tuple(0 if d != axis else 1 for d in range(dim))] = sign
    return p


class TestConvolve:
    """``_convolve`` must give the bytes of scipy's direct convolution, so
    that PolyGauss products, and every report built on them, keep their
    bits without importing scipy.signal."""

    @staticmethod
    def _assert_same_bytes(c, p):
        ours = _convolve(c, p)
        ref = convolve(c, p, method="direct")
        assert ours.shape == ref.shape and ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_inputs_match_scipy_direct(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(200):
            c = _signed_zero_coeffs(rng, tuple(rng.integers(1, 7, size=dim)))
            p = _signed_zero_coeffs(rng, tuple(rng.integers(1, 7, size=dim)))
            self._assert_same_bytes(c, p)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_shift_kernels_match_scipy_direct(self, dim):
        rng = np.random.default_rng(200 + dim)
        for _ in range(50):
            c = _signed_zero_coeffs(rng, tuple(rng.integers(1, 7, size=dim)))
            for axis in range(dim):
                for sign in (1.0, -1.0):
                    self._assert_same_bytes(c, _shift_kernel(dim, axis, sign))

    def test_mul_coordinate_matches_scipy_direct(self):
        rng = np.random.default_rng(7)
        f = PolyGauss(_signed_zero_coeffs(rng, (4, 5)), [0.5, 0.7])
        for axis in range(2):
            expect = convolve(f.coeffs, _shift_kernel(2, axis),
                              method="direct")
            got = f.mul_coordinate(axis).coeffs
            assert got.tobytes() == expect[tuple(
                slice(0, s) for s in got.shape)].tobytes()


HEAVY = ["scipy.signal", "scipy.stats", "scipy.ndimage", "scipy.interpolate"]


@pytest.mark.fresh_python(
    "import sys, dunkllab, dunkllab.runner; "
    f"print([m for m in {HEAVY!r} if m in sys.modules])",
    Path(__file__).resolve().parents[1] / "src")
def test_import_leaves_heavy_scipy_modules_out(fresh_python):
    # scipy.signal pulls in scipy.stats, ndimage and interpolate, close to
    # a second of start-up for every run; the package needs none of them
    assert fresh_python.returncode == 0, fresh_python.stderr
    assert fresh_python.stdout.strip() == "[]"


class TestPolyGaussGridSampling:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_values_on_is_bit_identical_to_pointwise(self, dim):
        # separable sampling must repeat the pointwise floating-point
        # operations exactly, on unequal axes and unequal exponents; so
        # must ``sample`` on the grid against ``sample`` at its points,
        # for every kind of function that has both
        rng = np.random.default_rng(dim)
        grid = TensorGrid.build(rng.uniform(0.0, 1.0, dim), 6.0,
                                [30, 25][:dim])
        pts = grid.points()

        def same_bytes(f):
            on_grid = sample(f, grid)
            assert on_grid.shape == grid.shape
            assert on_grid.tobytes() == sample(f, pts).reshape(
                grid.shape).tobytes()

        for _ in range(5):
            f = PolyGauss(rng.normal(size=tuple(rng.integers(1, 6, size=dim))),
                          rng.uniform(0.2, 1.0, dim))
            assert np.array_equal(f.values_on(grid),
                                  f(pts).reshape(grid.shape))
            same_bytes(f)
            for d in range(dim):
                refl = pts.copy()
                refl[:, d] = -refl[:, d]
                assert np.array_equal(f.reflect_axis(d).values_on(grid),
                                      f(refl).reshape(grid.shape))
                same_bytes(f.reflect_axis(d))
        for radius in (2.0, 4.5):
            same_bytes(radial_bump(dim, radius))
        wave = np.arange(1.0, dim + 1)
        same_bytes(CallableFunction(
            lambda p: np.cos(p @ wave) * np.exp(-np.sum(p**2, axis=1))))
        # grid samples exist on their grid only
        values = rng.normal(size=grid.shape)
        held = GridSampled(grid=grid, values=values)
        assert sample(held, grid).tobytes() == values.tobytes()
        assert sample(held.values, grid).tobytes() == values.tobytes()
        with pytest.raises(TypeError, match="not callable"):
            sample(held, pts)

    @pytest.mark.parametrize("ks", [[0.5], [0.7, 0.3]])
    def test_eta_chain_has_the_bits_of_the_public_fields(self, ks):
        # every field of one (grid, s) chain, in any order of requests,
        # against the public functions at the grid's points
        grid = WeightedContext(product_z2(ks), n_half=30).grid
        pts = grid.points()
        zetas = (np.eye(len(ks))[0], np.linspace(1.0, 0.4, len(ks)))
        for s in (0.5, 2.0):
            requests = [(lambda f: f.eta(grid), eta(pts, s)),
                        (lambda f: f.radial_factor(grid),
                         eta_radial_factor(pts, s))]
            requests += [(lambda f, z=z, j=j: f.directional(grid, z, j),
                          eta_directional(pts, s, z, j))
                         for j in (1, 2) for z in zetas]
            # the chain grows from eta up, or starts at its top
            for order in (requests, requests[::-1]):
                store = SampleStore()
                for fields in (EtaFields(s), EtaFields(s, store)):
                    EtaFields(1.0, store).eta(grid)
                    for field, expect in order:
                        assert field(fields).tobytes() == expect.reshape(
                            grid.shape).tobytes()


class TestRank1Operator:
    def test_odd_monomial_closed_form(self):
        # T(x e^{-a x^2}) = (1 + 2k - 2 a x^2) e^{-a x^2}
        for k in (0.0, 0.5, 1.0):
            ctx = rank1(k)
            a = 0.5
            out = apply_dunkl(ctx, [1.0], monomial_gauss([1], a))
            x = PTS1[:, 0]
            expect = (1 + 2 * k - 2 * a * x**2) * np.exp(-a * x**2)
            assert np.allclose(out(PTS1), expect, atol=1e-13)

    def test_even_function_reduces_to_derivative(self):
        # the reflection-difference term vanishes on even functions
        ctx = rank1(1.5)
        out = apply_dunkl(ctx, [1.0], gaussian(1, 0.5))
        x = PTS1[:, 0]
        assert np.allclose(out(PTS1), -x * np.exp(-x**2 / 2), atol=1e-13)

    def test_k_zero_is_plain_derivative(self):
        ctx = rank1(0.0)
        f = hermite_gauss(3, 0.6)
        assert np.allclose(apply_dunkl(ctx, [1.0], f)(PTS1),
                           f.deriv(0)(PTS1), atol=1e-13)

    def test_iterated_application(self):
        ctx = rank1(1.0)
        f = gaussian(1)
        once = apply_dunkl(ctx, [1.0], f)
        twice = apply_dunkl(ctx, [1.0], once)
        assert np.allclose(apply_dunkl_iterated(ctx, [1.0], f, 2)(PTS1),
                           twice(PTS1))


class TestCallablePath:
    def test_callable_matches_exact_polygauss(self):
        system = rank1(0.75)
        exact = apply_dunkl(system, [1.0], monomial_gauss([1], 0.5))

        fn = CallableFunction(
            fn=lambda p: p[:, 0] * np.exp(-p[:, 0] ** 2 / 2),
            gradient=lambda p: ((1 - p[:, 0] ** 2)
                                * np.exp(-p[:, 0] ** 2 / 2))[:, None],
        )
        out = apply_dunkl(system, [1.0], fn)
        # includes points inside the near-hyperplane window where the
        # difference quotient switches to a segment integral of the gradient
        pts = np.array([[2.0], [0.3], [1e-5], [-2e-5], [0.0], [-1.3]])
        assert np.allclose(out(pts), exact(pts), atol=1e-10)

    def test_callable_without_gradient_rejected(self):
        system = rank1(0.5)
        flat = CallableFunction(lambda p: np.exp(-p[:, 0] ** 2))
        with pytest.raises(CapabilityError):
            apply_dunkl(system, [1.0], flat)

    def test_values_helper_smooth_across_hyperplane(self):
        system = product_z2([0.5, 0.5])
        bump = radial_bump(2, 2.0)
        line = np.column_stack([np.linspace(-1e-3, 1e-3, 41),
                                np.full(41, 0.7)])
        vals = dunkl_apply_values(system, bump, np.array([1.0, 0.0]), line)
        assert np.all(np.abs(np.diff(vals)) < 1e-3)


class TestOperatorIdentities:
    """Difference-differential operator algebra on a two-dimensional product
    system with distinct multiplicities."""

    SYSTEM = product_z2([0.7, 0.3])
    Z1 = np.array([1.0, 0.5])
    Z2 = np.array([-0.25, 1.0])

    def battery(self):
        return [
            gaussian(2, 0.5),
            monomial_gauss([1, 0], [0.5, 0.5]),
            monomial_gauss([2, 1], [0.5, 0.5]),
            monomial_gauss([1, 1], [0.4, 0.4]),
        ]

    def test_commutativity(self):
        for f in self.battery():
            ab = apply_dunkl(self.SYSTEM, self.Z2,
                             apply_dunkl(self.SYSTEM, self.Z1, f))
            ba = apply_dunkl(self.SYSTEM, self.Z1,
                             apply_dunkl(self.SYSTEM, self.Z2, f))
            assert np.allclose(ab(PTS2), ba(PTS2), atol=1e-12)

    def test_skew_symmetry_under_the_measure(self):
        ctx = WeightedContext(self.SYSTEM)
        grid = ctx.grid
        for f in self.battery()[:2]:
            for g in self.battery()[2:]:
                tf_g = grid.integrate(apply_dunkl(ctx.system, self.Z1, f)
                                      .values_on(grid) * g.values_on(grid))
                f_tg = grid.integrate(f.values_on(grid)
                                      * apply_dunkl(ctx.system, self.Z1, g)
                                      .values_on(grid))
                assert tf_g == pytest.approx(-f_tg, abs=1e-10)

    def test_leibniz_for_invariant_radial_factor(self):
        # T_z(f r) = (T_z f) r + f (d_z r) when r is G-invariant
        r = np.zeros((3, 3))
        r[0, 0], r[2, 0], r[0, 2] = 1.0, 1.0, 1.0  # r = 1 + |x|^2
        dz_r = np.zeros((2, 2))
        dz_r[1, 0], dz_r[0, 1] = 2 * self.Z1[0], 2 * self.Z1[1]
        for f in self.battery():
            lhs = apply_dunkl(self.SYSTEM, self.Z1, f.mul_poly(r))
            rhs = apply_dunkl(self.SYSTEM, self.Z1, f).mul_poly(r) \
                + f.mul_poly(dz_r)
            assert np.allclose(lhs(PTS2), rhs(PTS2), atol=1e-12)

    def test_equivariance_under_reflections(self):
        # T_z(f o sigma) = (T_{sigma z} f) o sigma for the axis sign flip
        sz = self.Z1 * np.array([-1.0, 1.0])
        for f in self.battery():
            lhs = apply_dunkl(self.SYSTEM, self.Z1, f.reflect_axis(0))
            rhs = apply_dunkl(self.SYSTEM, sz, f).reflect_axis(0)
            assert np.allclose(lhs(PTS2), rhs(PTS2), atol=1e-12)

    def test_laplacian_formula_matches_composition(self):
        for f in self.battery():
            a = dunkl_laplacian(self.SYSTEM, f, method="formula")
            b = dunkl_laplacian(self.SYSTEM, f, method="compose")
            assert np.allclose(a(PTS2), b(PTS2), atol=1e-12)

    def test_laplacian_is_sum_of_squared_coordinate_operators(self):
        f = monomial_gauss([2, 1], [0.5, 0.5])
        total = None
        for d, e_d in enumerate(np.eye(2)):
            term = apply_dunkl_iterated(self.SYSTEM, e_d, f, 2)
            total = term if total is None else total + term
        lap = dunkl_laplacian(self.SYSTEM, f)
        assert np.allclose(lap(PTS2), total(PTS2), atol=1e-12)


class TestCapabilityBoundaries:
    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            apply_dunkl(rank1(0.5), [0.0], gaussian(1))

    def test_wrong_dimension_direction_rejected(self):
        with pytest.raises(ValueError):
            apply_dunkl(rank1(0.5), [1.0, 0.0], gaussian(1))

    def test_laplacian_requires_polygauss(self):
        bump = radial_bump(1, 2.0)
        with pytest.raises(CapabilityError):
            dunkl_laplacian(rank1(0.5), bump)


class TestRadialBump:
    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]])
    def test_grid_samples_bytes_equal_point_evaluation(self, ks):
        grid = TensorGrid.build(ks=ks, half_widths=3.0, n_halves=40)
        bump = radial_bump(len(ks), 2.0)
        on_axes = bump.values_on(grid)
        on_points = bump(grid.points()).reshape(grid.shape)
        assert on_axes.shape == grid.shape
        assert on_axes.tobytes() == on_points.tobytes()

    def test_rank_one_vector_is_that_many_points(self):
        # an (M,) vector in rank 1 was read as one M-dimensional point:
        # one value, the bump at |x| = sqrt 5
        bump = radial_bump(1, 3.0)
        column = np.array([[0.0], [1.0], [2.0]])
        got = bump([0.0, 1.0, 2.0])
        assert got.tolist() == pytest.approx([1.0, 0.243315, 8.6443e-4],
                                             rel=1e-4)
        assert got.tobytes() == bump(column).tobytes()
        assert bump.gradient([0.0, 1.0, 2.0]).tobytes() == bump.gradient(
            column).tobytes()

    def test_support_and_peak(self):
        bump = radial_bump(2, 1.5)
        assert bump(np.zeros((1, 2)))[0] == pytest.approx(1.0)
        assert bump(np.array([[1.5, 0.1]]))[0] == 0.0

    def test_gradient_matches_finite_difference(self):
        bump = radial_bump(2, 2.0)
        pts = RNG.uniform(-1.2, 1.2, size=(10, 2))
        h = 1e-6
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            fd = (bump(pts + e) - bump(pts - e)) / (2 * h)
            assert np.allclose(bump.gradient(pts)[:, d], fd,
                               rtol=1e-5, atol=1e-8)
