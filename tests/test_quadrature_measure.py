"""Weighted quadrature grids, the measure, and weighted norms."""

import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gamma

from dunkllab import (DomainTooSmallError, WeightedContext, ball_volume,
                      product_z2, rank1, weighted_norm)
from dunkllab import measure, quadrature
from dunkllab.harness import make_pair_grid
from dunkllab.functions import sample
from dunkllab.measure import EtaFields, volume_max_pairs
from dunkllab.errors import AccuracyError
from dunkllab.quadrature import (AxisRule, TensorGrid,
                                 boundary_shell_fraction, check_refined,
                                 check_shell, integrate_shell_checked,
                                 pairwise_sum, relative_move)


class TestAxisRule:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_integrates_weighted_even_monomials_exactly(self, k, m):
        # oracle: int_{-W}^{W} 2^k |x|^{2k} x^{2m} dx
        #       = 2^(k+1) W^(2k+2m+1) / (2k+2m+1)
        W = 3.0
        rule = AxisRule.build(k=k, half_width=W, n_half=40)
        approx = np.sum(rule.weights * rule.nodes ** (2 * m))
        exact = 2.0 ** (k + 1) * W ** (2 * k + 2 * m + 1) / (2 * k + 2 * m + 1)
        assert approx == pytest.approx(exact, rel=1e-12)

    def test_odd_monomials_integrate_to_zero(self):
        rule = AxisRule.build(k=1.0, half_width=2.0, n_half=30)
        assert np.sum(rule.weights * rule.nodes**3) == pytest.approx(0.0, abs=1e-13)

    def test_gaussian_against_closed_form(self):
        # int 2^k |x|^{2k} e^{-x^2/2} dx = 2^(2k+1/2) Gamma(k+1/2)
        for k in (0.0, 0.5, 1.0):
            rule = AxisRule.build(k=k, half_width=12.0, n_half=200)
            approx = np.sum(rule.weights * np.exp(-rule.nodes**2 / 2))
            exact = 2.0 ** (2 * k + 0.5) * gamma(k + 0.5)
            assert approx == pytest.approx(exact, rel=1e-12)


class TestTensorGrid:
    def test_two_dim_separable_integral(self):
        grid = TensorGrid.build(ks=[0.5, 1.0], half_widths=10.0, n_halves=80)
        vals = np.exp(-(grid.axis_nodes(0)[:, None] ** 2
                        + grid.axis_nodes(1)[None, :] ** 2) / 2)
        approx = grid.integrate(vals)
        exact = (2.0 ** (2 * 0.5 + 0.5) * gamma(1.0)
                 * 2.0 ** (2 * 1.0 + 0.5) * gamma(1.5))
        assert approx == pytest.approx(exact, rel=1e-11)

    def test_refined_grid_changes_node_count(self):
        grid = TensorGrid.build(ks=0.0, half_widths=5.0, n_halves=20)
        fine = grid.refined()
        assert fine.axes[0].n_half == 30

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]])
    def test_outer_sum_bytes_equal_point_rows(self, ks):
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        pts = grid.points()
        squares = grid.outer_sum(lambda d, x: x * x)
        assert squares.shape == grid.shape and squares.flags.c_contiguous
        assert (squares.tobytes()
                == np.add.reduce(pts * pts, axis=1).tobytes())
        assert (np.sqrt(squares).tobytes()
                == np.linalg.norm(pts, axis=1).tobytes())

    def test_shell_fraction_flags_boundary_mass(self):
        grid = TensorGrid.build(ks=0.0, half_widths=5.0, n_halves=60)
        x = grid.points()[:, 0].reshape(grid.shape)
        concentrated = np.exp(-(x**2))
        boundary = np.exp(-((np.abs(x) - 5.0) ** 2))
        assert boundary_shell_fraction(grid, np.abs(concentrated)) < 1e-10
        assert boundary_shell_fraction(grid, np.abs(boundary)) > 0.1

    def test_check_shell_raises_for_unconfined_values(self):
        grid = TensorGrid.build(ks=0.0, half_widths=4.0, n_halves=50)
        with pytest.raises(DomainTooSmallError):
            check_shell(grid, np.ones(grid.shape))

    @staticmethod
    def _refined_integral(grid, fn):
        """The integral of fn on the refined grid, checked against the
        grid's own to 1e-9 relative to max(|fine|, 1)."""
        fine = grid.refined()
        return check_refined(grid.integrate(sample(fn, grid)),
                             fine.integrate(sample(fn, fine)), 1e-9,
                             "integral", floor=1.0)

    def test_refined_integral_agrees_with_closed_form(self):
        grid = TensorGrid.build(ks=0.0, half_widths=10.0, n_halves=80)
        val = self._refined_integral(grid, lambda p: np.exp(-p[:, 0] ** 2 / 2))
        assert val == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)

    def test_refined_integral_flags_underresolved_integrand(self):
        grid = TensorGrid.build(ks=0.0, half_widths=4.0, n_halves=12)
        with pytest.raises(AccuracyError):
            self._refined_integral(grid, lambda p: np.cos(60 * p[:, 0] ** 2)
                                   * np.exp(-p[:, 0] ** 2))


def _signed_samples(grid, rng, dtype):
    """A field decayed on the shell, with signed zeros scattered in."""
    r2 = grid.outer_sum(lambda d, x: x * x)
    vals = np.exp(-r2) * rng.standard_normal(grid.shape)
    if dtype is complex:
        vals = vals + 1j * np.exp(-r2) * rng.standard_normal(grid.shape)
    vals[rng.random(grid.shape) < 0.1] = -0.0
    return vals


class TestBlockedWeights:
    """integrate and the shell check take the weights in row blocks; the
    totals have the bits of the whole weights' sums, and the shell share,
    summed leaf by leaf, is within 1e-14 of the whole one."""

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]], ids=["dim1", "dim2"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bytes_equal_weight_tensor_products(self, monkeypatch, ks,
                                                order, dtype):
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        # 6 rows a block: 50 rows are 8 full blocks and one of 2
        monkeypatch.setattr(quadrature, "BLOCK_BYTES",
                            6 * 8 * (grid.size // grid.shape[0]))
        assert len(grid.row_blocks()) == 9
        vals = np.asarray(_signed_samples(grid, np.random.default_rng(5),
                                          dtype), order=order)
        w = grid.weight_rows()
        got = np.asarray(grid.integrate(vals))
        assert got.tobytes() == np.asarray(np.sum(w * vals)).tobytes()
        mass = w * np.abs(vals)
        total = float(np.sum(mass))
        monkeypatch.setattr(quadrature, "SHELL_TOL", 1.0)
        assert check_shell(grid, vals) == total
        share = float(np.sum(mass[grid.shell_rows()])) / total
        assert boundary_shell_fraction(grid, vals) == pytest.approx(
            share, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]], ids=["dim1", "dim2"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_block_shell_share_bytes(self, ks, order):
        # one block is one leaf: the shell share keeps np.sum's bits
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        assert len(grid.row_blocks()) == 1
        vals = _edge_samples(grid, np.random.default_rng(11), order)
        mass = grid.weight_rows() * np.abs(vals)
        share = float(np.sum(mass[grid.shell_rows()])) / float(np.sum(mass))
        assert _bits(boundary_shell_fraction(grid, vals)) == _bits(share)

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]], ids=["dim1", "dim2"])
    def test_gaussian_mass_bytes_equal_weight_tensor_sum(self, monkeypatch,
                                                         ks):
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        monkeypatch.setattr(quadrature, "BLOCK_BYTES",
                            6 * 8 * (grid.size // grid.shape[0]))
        field = np.exp(-0.5 * grid.outer_sum(lambda d, x: x ** 2))
        expect = np.sum(grid.weight_rows() * field)
        got = measure._gaussian_mass.__wrapped__(grid.geometry)
        assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


def _row_leaves(a: np.ndarray):
    """``leaf(lo, hi)`` of the C-ordered values of ``a``, formed from the
    rows of ``a`` that hold them."""
    width = a.size // a.shape[0]

    def leaf(lo: int, hi: int) -> np.ndarray:
        top = lo // width
        rows = a[top:-(-hi // width)].ravel()
        return rows[lo - top * width:hi - top * width]

    return leaf


def _signed_wide(shape, seed: int) -> np.ndarray:
    """Values of magnitude e^{-30}..e^{30}, of either sign."""
    rng = np.random.default_rng(seed)
    return (np.exp(rng.uniform(-30.0, 30.0, shape))
            * rng.choice([-1.0, 1.0], shape))


class TestPairwiseSum:
    """``pairwise_sum`` has the bits of ``np.sum`` of the whole C-ordered
    sequence, fed in leaves formed from its rows."""

    @pytest.mark.parametrize("shape", [
        (1,), (5,), (7,), (8,), (128,), (129,), (131,), (1009,), (65537,),
        (1000003,), (1, 5_000_001), (2700, 2700), (1800, 1800), (333, 777)])
    def test_bytes_equal_np_sum(self, shape):
        a = _signed_wide(shape, sum(shape))
        assert _bits(pairwise_sum(a.size, _row_leaves(a))) == _bits(np.sum(a))

    @pytest.mark.parametrize("n", [7, 8, 128, 129, 257, 1009, 4099, 65537])
    @pytest.mark.parametrize("leaf_values", [1, 136, 1000])
    def test_small_leaves_keep_the_tree(self, monkeypatch, n, leaf_values):
        # leaves are never cut below numpy's 128-value blocks
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", 8 * leaf_values)
        a = _signed_wide((n,), n)
        leaves = []

        def leaf(lo, hi):
            leaves.append(hi - lo)
            return a[lo:hi]

        assert _bits(pairwise_sum(n, leaf)) == _bits(np.sum(a))
        assert sum(leaves) == n
        assert max(leaves) <= max(leaf_values, 128)
        assert len(leaves) == 1 or min(leaves) >= 64

    def test_zeros_of_either_sign(self):
        a = np.array([-0.0] * 700 + [0.0] * 300 + [-0.0] * 500)
        for n in (1, 700, 1000, 1500):
            for leaf_values in (128, 200):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(quadrature, "BLOCK_BYTES", 8 * leaf_values)
                    got = pairwise_sum(n, lambda lo, hi: a[lo:hi])
                assert _bits(got) == _bits(np.sum(a[:n]))


def _peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoGridSizedArray:
    """On grids of more than one block the whole-grid sums form no
    float64 array of the grid's size."""

    def test_gaussian_mass_on_2700_squared(self):
        geometry = ((0.5, 48.0, 1350),) * 2
        grid = TensorGrid(axes=tuple(AxisRule.build(*axis)
                                     for axis in geometry))
        assert len(grid.row_blocks()) > 1
        peak = _peak(lambda: measure._gaussian_mass.__wrapped__(geometry))
        assert peak < 8 * grid.size / 2

    def test_check_shell_on_1800_squared(self):
        grid = TensorGrid.build(ks=[0.5, 0.5], half_widths=12.0,
                                n_halves=900)
        vals = np.exp(-grid.outer_sum(lambda d, x: x * x))
        vals[::7, ::5] *= -1.0
        assert _peak(lambda: check_shell(grid, vals)) < 8 * grid.size / 2
        assert _peak(lambda: boundary_shell_fraction(grid, vals)) \
            < 8 * grid.size / 2
        mass = grid.weight_rows() * np.abs(vals)
        total = float(np.sum(mass))
        assert _bits(check_shell(grid, vals)) == _bits(total)
        share = float(np.sum(mass[grid.shell_rows()])) / total
        assert boundary_shell_fraction(grid, vals) == pytest.approx(
            share, rel=1e-14, abs=0.0)


def _small_blocks(monkeypatch, grid, rows: int = 6):
    """Shrink ``BLOCK_BYTES`` to ``rows`` rows of ``grid`` a block."""
    monkeypatch.setattr(quadrature, "BLOCK_BYTES",
                        rows * 8 * (grid.size // grid.shape[0]))
    assert len(grid.row_blocks()) > 1


def _edge_samples(grid, rng, order):
    """Real decayed samples: negative values, zeros of both signs, and
    subnormal values whose weighted products are subnormal too."""
    vals = _signed_samples(grid, rng, float)
    vals[rng.random(grid.shape) < 0.05] = 0.0
    tiny = rng.random(grid.shape) < 0.1
    vals[tiny] = 1e-310 * rng.standard_normal(grid.shape)[tiny]
    vals.flat[:3] = [5e-324, -5e-324, -0.0]
    return np.asarray(vals, order=order)


BLOCKS = ["one_block", "many_blocks"]


class TestOneWeightedPass:
    """``integrate_shell_checked`` returns the bits of ``integrate`` and of
    ``check_shell``, and of the whole weight tensor's sums."""

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]], ids=["dim1", "dim2"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_bytes_equal_integrate_and_check_shell(self, monkeypatch, ks,
                                                   order, blocks):
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        if blocks == "many_blocks":
            _small_blocks(monkeypatch, grid)
        vals = _edge_samples(grid, np.random.default_rng(7), order)
        w = grid.weight_rows()
        products = w * vals
        assert np.any((products != 0) & (np.abs(products) < 2.2e-308))
        monkeypatch.setattr(quadrature, "SHELL_TOL", 1.0)
        value, mass = integrate_shell_checked(grid, vals)
        assert _bits(value) == _bits(float(grid.integrate(vals)))
        assert _bits(mass) == _bits(check_shell(grid, vals))
        assert _bits(value) == _bits(float(np.sum(products)))
        assert _bits(mass) == _bits(float(np.sum(w * np.abs(vals))))

    def test_complex_integrand_rejected(self):
        grid = TensorGrid.build(ks=[0.5], half_widths=6.0, n_halves=25)
        with pytest.raises(TypeError):
            integrate_shell_checked(grid, np.ones(grid.shape, dtype=complex))


def _integrate_after_shell(grid, vals, s):
    """The weighted-norm square as integral taken after the shell check."""
    integrand = np.abs(vals) ** 2
    if s != 0.0:
        integrand = integrand * measure.EtaFields(s).eta(grid)
    check_shell(grid, integrand, what="weighted norm")
    expect = float(grid.integrate(integrand))
    assert _bits(expect) == _bits(float(np.sum(grid.weight_rows() * integrand)))
    return expect


class TestWeightedNormBits:
    """The squared norm is the shell check's mass, with the bits of the
    integral taken after the check."""

    @pytest.mark.parametrize("s", [0.0, 1.0])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_bytes_equal_integral_after_shell_check(self, monkeypatch, s,
                                                    order, blocks):
        ctx = WeightedContext(product_z2([0.25, 1.0]), box=6.0, n_half=25)
        if blocks == "many_blocks":
            _small_blocks(monkeypatch, ctx.grid)
        rng = np.random.default_rng(3)
        samples = {}
        for grid in (ctx.grid, ctx.grid_fine):
            vals = _edge_samples(grid, rng, "C")
            # |v|^2 subnormal at these
            tiny = rng.random(grid.shape) < 0.1
            vals[tiny] = 1e-156 * rng.standard_normal(grid.shape)[tiny]
            samples[id(grid)] = np.asarray(vals, order=order)

        class Sampled:
            def values_on(self, grid):
                return samples[id(grid)]

        squares = []
        monkeypatch.setattr(measure, "check_refined",
                            lambda base, fine, *a, **k:
                            squares.append((base, fine)) or fine)
        weighted_norm(ctx, Sampled(), s)
        expect = tuple(_integrate_after_shell(grid, samples[id(grid)], s)
                       for grid in (ctx.grid, ctx.grid_fine))
        assert len(squares) == 1
        assert _bits(squares[0]) == _bits(expect)


class TestHeldGridConstants:
    """A one-block grid forms its weights and shell mask once, read-only,
    and ``weight_rows()`` of all rows is the held array; a larger grid
    holds nothing."""

    def test_threads_on_a_cold_grid_share_one_weight_array(self,
                                                           monkeypatch):
        grid = TensorGrid.build(ks=[0.25, 1.0], half_widths=6.0, n_halves=60)
        assert len(grid.row_blocks()) == 1
        vals = _signed_samples(grid, np.random.default_rng(9), float)
        formed = {"weights": 0, "masks": 0}
        true_rows, true_mask = TensorGrid._weight_rows, TensorGrid._shell_rows

        def slow(name, fn):
            def wrapped(*args):
                formed[name] += 1
                time.sleep(0.02)   # widen the window of a racing first use
                return fn(*args)
            return wrapped

        monkeypatch.setattr(TensorGrid, "_weight_rows",
                            slow("weights", true_rows))
        monkeypatch.setattr(TensorGrid, "_shell_rows",
                            slow("masks", true_mask))
        monkeypatch.setattr(quadrature, "SHELL_TOL", 1.0)
        start = threading.Barrier(8)

        def work(_):
            start.wait()
            value, mass = integrate_shell_checked(grid, vals)
            return (_bits(grid.integrate(vals)),
                    _bits(check_shell(grid, vals)),
                    _bits(value), _bits(mass), grid.weight_rows())

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(work, range(8)))
        assert len({r[:4] for r in results}) == 1
        assert formed == {"weights": 1, "masks": 1}
        weights = [v for v in vars(grid).values()
                   if isinstance(v, np.ndarray) and v.dtype == float]
        assert len(weights) == 1
        assert all(r[4] is weights[0] for r in results)
        assert not weights[0].flags.writeable
        assert not grid.shell_rows().flags.writeable

    def test_blocked_grid_holds_nothing(self, monkeypatch):
        grid = TensorGrid.build(ks=[0.25, 1.0], half_widths=6.0, n_halves=25)
        _small_blocks(monkeypatch, grid)
        vals = _signed_samples(grid, np.random.default_rng(9), float)
        monkeypatch.setattr(quadrature, "SHELL_TOL", 1.0)
        grid.integrate(vals)
        check_shell(grid, vals)
        integrate_shell_checked(grid, vals)
        assert grid.weight_rows() is not grid.weight_rows()
        assert not [v for v in vars(grid).values()
                    if isinstance(v, np.ndarray)]


class TestOneWalk:
    """The shell check forms each row of its mass once per leaf of the
    total's tree that covers the row: the shell mass rides those leaves."""

    @pytest.mark.parametrize("ks", [[0.5], [0.25, 1.0]], ids=["dim1", "dim2"])
    def test_check_shell_forms_each_row_once_per_leaf(self, monkeypatch, ks):
        grid = TensorGrid.build(ks=ks, half_widths=6.0, n_halves=25)
        _small_blocks(monkeypatch, grid)
        width = grid.size // grid.shape[0]
        covers = np.zeros(grid.shape[0], dtype=int)

        def leaf(lo, hi):
            covers[lo // width:-(-hi // width)] += 1
            return np.zeros(hi - lo)

        pairwise_sum(grid.size, leaf)
        formed = np.zeros(grid.shape[0], dtype=int)
        true_mass = quadrature._abs_mass

        def counted_mass(*args):
            mass = true_mass(*args)

            def rows_of(rows):
                formed[rows] += 1
                return mass(rows)
            return rows_of

        monkeypatch.setattr(quadrature, "_abs_mass", counted_mass)
        monkeypatch.setattr(quadrature, "SHELL_TOL", 1.0)
        vals = _signed_samples(grid, np.random.default_rng(13), float)
        check_shell(grid, vals)
        assert np.all(formed >= 1)
        assert np.all(formed <= covers)


class TestNonFiniteIntegrand:
    """A NaN or infinite sample makes the |values| dw mass non-finite: an
    AccuracyError naming the integrand, not a box to enlarge."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["interior", "shell"])
    def test_shell_guards_raise(self, bad, where):
        grid = TensorGrid.build(ks=[0.5, 0.5], half_widths=6.0, n_halves=20)
        vals = np.exp(-grid.outer_sum(lambda d, x: x * x))
        vals[(20, 17) if where == "interior" else (0, 17)] = bad
        with pytest.raises(AccuracyError, match="probe is not finite"):
            check_shell(grid, vals, what="probe")
        with pytest.raises(AccuracyError, match="probe is not finite"):
            integrate_shell_checked(grid, vals, what="probe")


class TestRefinementGuard:
    def test_scalar_move_is_relative_to_reference(self):
        assert relative_move(1.25, 1.0) == 0.25
        assert relative_move(-3.0, -2.0) == 0.5

    def test_array_move_is_a_sup_norm(self):
        value = np.array([1.0, 2.5, -4.0])
        reference = np.array([1.0, 2.0, -5.0])
        assert relative_move(value, reference) == 1.0 / 5.0

    def test_floor_bounds_the_scale(self):
        assert relative_move(1e-3, 2e-3) == 0.5
        assert relative_move(1e-3, 2e-3, floor=1.0) == 1e-3
        assert relative_move(1e-20, 0.0) == 1e-20 / 1e-300

    def test_returns_the_refined_object(self):
        fine = np.array([1.0, -2.0])
        assert check_refined(fine * (1.0 + 1e-12), fine, 1e-9, "pair") is fine
        assert check_refined(0.5, 0.5, 0.0, "equal pair") == 0.5

    def test_message_names_the_quantity(self):
        with pytest.raises(AccuracyError,
                           match="widget mass unstable under refinement"):
            check_refined(1.0, 1.1, 1e-3, "widget mass")

    def test_floor_can_pass_a_move_above_the_value(self):
        with pytest.raises(AccuracyError):
            check_refined(2e-9, 1e-9, 1e-8, "tiny")
        assert check_refined(2e-9, 1e-9, 1e-8, "tiny", floor=1.0) == 1e-9

    def test_nan_move_is_rejected(self):
        with pytest.raises(AccuracyError):
            check_refined(np.nan, 1.0, 1e-3, "nan value")


class TestBallVolume:
    def test_rank1_ball_volumes_frozen(self):
        sys1 = rank1(1.0)
        assert ball_volume(sys1, np.array([0.0]), 1.0) == pytest.approx(4.0 / 3.0)
        assert ball_volume(sys1, np.array([0.0]), 2.0) == pytest.approx(32.0 / 3.0)

    def test_product_half_half_ball_volumes_frozen(self):
        sys2 = product_z2([0.5, 0.5])
        assert ball_volume(sys2, np.zeros(2), 1.0) == pytest.approx(1.0, rel=1e-9)
        assert ball_volume(sys2, np.zeros(2), 2.0) == pytest.approx(16.0, rel=1e-9)

    def test_off_center_ball_reduces_to_lebesgue_at_k_zero(self):
        sys0 = rank1(0.0)
        assert ball_volume(sys0, np.array([3.0]), 0.5) == pytest.approx(1.0)

    def test_volume_max_takes_larger_ball(self):
        sys1 = rank1(1.0)
        x, y = np.array([0.1]), np.array([2.0])
        vx = ball_volume(sys1, x, 1.0)
        vy = ball_volume(sys1, y, 1.0)
        assert volume_max_pairs(sys1, x, y, 1.0) == pytest.approx([max(vx, vy)])


def _disc_volume_oracle(ks, center, r):
    """w(B(center, r)) for the product weight by scipy's dblquad, with the
    integration region split along both axes so every piece is smooth."""
    k1, k2 = ks
    cx, cy = center

    def density(y, x):
        return 2.0**k1 * abs(x) ** (2 * k1) * 2.0**k2 * abs(y) ** (2 * k2)

    def lo(x):
        return cy - np.sqrt(max(r * r - (x - cx) ** 2, 0.0))

    def hi(x):
        return cy + np.sqrt(max(r * r - (x - cx) ** 2, 0.0))

    xcuts = [cx - r, cx + r]
    if cx - r < 0.0 < cx + r:
        xcuts.insert(1, 0.0)
    total = 0.0
    for a, b in zip(xcuts[:-1], xcuts[1:]):
        # below and above y = 0; an empty piece has equal limits
        total += dblquad(density, a, b, lo,
                         lambda x: max(min(hi(x), 0.0), lo(x)),
                         epsabs=0.0, epsrel=1e-13)[0]
        total += dblquad(density, a, b,
                         lambda x: min(max(lo(x), 0.0), hi(x)), hi,
                         epsabs=0.0, epsrel=1e-13)[0]
    return total


_CHORD_KINK = pytest.mark.xfail(
    strict=True, reason="known defect: for |x2| < r, and 2 k2 not an even "
    "integer, the chord antiderivative has a kink inside a theta panel; "
    "up to ~3e-8 relative")
_CUT_ENDPOINT = pytest.mark.xfail(
    strict=True, reason="known defect: at the |x1| < r cut the density "
    "|u|^{2 k1} is an endpoint singularity of Gauss-Legendre for "
    "non-integer 2 k1; ~3e-8 relative")


class TestOffCentreBallVolumeOracle:
    # both cut patterns of the theta integral (|x1| < r splits it at u = 0,
    # |x1| >= r does not), each with the chord crossing x2 = 0 or not
    @pytest.mark.parametrize("ks, center", [
        ([0.5, 0.5], (0.3, 1.5)),
        ([0.5, 0.5], (1.5, 1.2)),
        pytest.param([0.5, 0.5], (0.3, -0.2), marks=_CHORD_KINK),
        pytest.param([0.5, 0.5], (1.5, 0.4), marks=_CHORD_KINK),
        pytest.param([0.25, 1.0], (0.3, 1.5), marks=_CUT_ENDPOINT),
        ([0.25, 1.0], (1.5, 1.2)),
        pytest.param([0.25, 1.0], (0.3, 0.2), marks=_CUT_ENDPOINT),
        ([0.25, 1.0], (-1.2, -0.3)),
    ])
    def test_matches_dblquad(self, ks, center):
        got = ball_volume(product_z2(ks), np.array(center), 1.0)
        assert got == pytest.approx(_disc_volume_oracle(ks, center, 1.0),
                                    rel=1e-9)


class TestPairVolumes:
    @pytest.mark.parametrize("system", [rank1(0.5), product_z2([0.5, 0.5])],
                             ids=["rank1", "product2"])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_batched_pairs_equal_scalar_loop(self, system, t):
        xs, ys = make_pair_grid(WeightedContext(system))
        loop = np.array([max(ball_volume(system, x, t), ball_volume(system, y, t))
                         for x, y in zip(xs, ys)])
        assert np.array_equal(volume_max_pairs(system, xs, ys, t), loop)

    def test_one_volume_per_distinct_centre(self, monkeypatch):
        system = product_z2([0.5, 0.5])
        xs, ys = make_pair_grid(WeightedContext(system))
        centres = []
        real = measure.ball_volume

        def counting(sys_, center, r):
            centres.append(tuple(center))
            return real(sys_, center, r)

        monkeypatch.setattr(measure, "ball_volume", counting)
        volume_max_pairs(system, xs, ys, 1.0)
        assert len(centres) == len(set(centres))
        assert set(centres) == set(map(tuple, np.concatenate([xs, ys])))

    def test_legendre_rule_built_once_per_process(self, monkeypatch):
        calls = []
        real = measure.roots_legendre

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(measure, "roots_legendre", counting)
        measure._legendre_rule.cache_clear()
        system = product_z2([0.5, 0.5])
        for i in range(25):
            ball_volume(system, np.array([0.1 * i, -0.05 * i]), 0.5 + 0.1 * i)
        assert calls == [240]
        nodes, weights = measure._legendre_rule(240)
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestWeightedContext:
    def test_ck_matches_closed_form_rank1(self):
        for k in (0.0, 0.5, 1.0):
            ctx = WeightedContext(rank1(k))
            exact = 2.0 ** (2 * k + 0.5) * gamma(k + 0.5)
            assert ctx.c_k == pytest.approx(exact, rel=1e-10)

    def test_ck_factorizes_for_products(self):
        ctx = WeightedContext(product_z2([0.5, 1.0]))
        exact = (2.0 ** (2 * 0.5 + 0.5) * gamma(1.0)
                 * 2.0 ** (2 * 1.0 + 0.5) * gamma(1.5))
        assert ctx.c_k == pytest.approx(exact, rel=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_ck_overflow_names_its_cause(self):
        # c_k = prod_d 2^{2k_d+1/2} Gamma(k_d+1/2) is about 5e434 here
        ctx = WeightedContext(product_z2([100.0, 100.0]))
        with pytest.raises(AccuracyError, match=r"c_k overflows float64 at "
                           r"ks \[100\.0, 100\.0\]"):
            ctx.c_k
        # rank 1 at k = 100 is finite, but |x|^200 e^{-|x|^2/2} peaks at
        # |x| = 14.1, outside the 12 box: the shell guard names the box
        with pytest.raises(DomainTooSmallError, match=r"c_k's Gaussian at "
                           r"ks \[100\.0\] on the 12 box: boundary shell "
                           r"carries 9\.67\de-01"):
            WeightedContext(rank1(100.0)).c_k

    @pytest.mark.parametrize("system", [rank1(0.5), product_z2([0.25, 1.0]),
                                        rank1(20.0)])
    def test_ck_bit_identical_to_point_formula(self, system):
        # at k = 20 the shell carries 3.2e-11 of the Gaussian: the guard
        # passes, and c_k keeps the bits of the quadrature
        ctx = WeightedContext(system, n_half=60)

        def gauss(grid):
            pts = grid.points()
            return grid.integrate(np.exp(-0.5 * np.sum(pts**2, axis=1)))

        assert ctx.c_k == float(gauss(ctx.grid_fine))

    def test_gaussian_mass_once_per_grid_geometry(self):
        # the refined context's base grid is the base context's fine grid
        measure._gaussian_mass.cache_clear()
        base = WeightedContext(product_z2([0.5, 0.5]), n_half=40)
        fine = base.with_grids(n_half=60)
        assert base.c_k != fine.c_k
        info = measure._gaussian_mass.cache_info()
        assert (info.misses, info.hits) == (3, 1)

    def test_with_grids_overrides(self):
        ctx = WeightedContext(rank1(0.0))
        wide = ctx.with_grids(box=20.0, n_half=300)
        assert wide.box == 20.0
        assert wide.grid.axes[0].n_half == 300
        assert wide.freq_box == ctx.freq_box


class TestWeightedNorm:
    def test_gaussian_l2_norm_classical(self):
        ctx = WeightedContext(rank1(0.0))
        from dunkllab import gaussian
        assert weighted_norm(ctx, gaussian(1), 0.0) == pytest.approx(
            np.pi ** 0.25, rel=1e-10)

    def test_eta_weighted_norm_exceeds_plain(self):
        ctx = WeightedContext(rank1(0.5))
        from dunkllab import gaussian
        plain = weighted_norm(ctx, gaussian(1), 0.0)
        weighted = weighted_norm(ctx, gaussian(1), 1.0)
        assert weighted > plain

    def test_norm_raises_for_unconfined_function(self):
        from dunkllab import CallableFunction
        ctx = WeightedContext(rank1(0.0))
        flat = CallableFunction(lambda p: np.ones(p.shape[0]))
        with pytest.raises(DomainTooSmallError):
            weighted_norm(ctx, flat, 0.0)


class TestEta:
    def test_eta_at_origin_is_e(self):
        pts = np.zeros((1, 2))
        assert EtaFields(1.7).eta(pts) == pytest.approx(np.e)

    def test_eta_directional_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(4, 2))
        zeta = np.array([0.6, -0.8])
        s = 0.9
        h = 1e-6
        fields = EtaFields(s)
        fd = (fields.eta(pts + h * zeta)
              - fields.eta(pts - h * zeta)) / (2 * h)
        assert np.allclose(fields.directional(pts, zeta, 1), fd,
                           rtol=1e-7, atol=1e-7)

    def test_eta_second_directional_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(4, 2))
        zeta = np.array([1.0, 0.5])
        s = 1.3
        h = 1e-4
        fields = EtaFields(s)
        fd = (fields.eta(pts + h * zeta) - 2 * fields.eta(pts)
              + fields.eta(pts - h * zeta)) / h**2
        assert np.allclose(fields.directional(pts, zeta, 2), fd,
                           rtol=1e-5, atol=1e-5)
