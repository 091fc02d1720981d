"""Weighted integral transform: fixed points, Plancherel, inversion, convolution."""

import dataclasses
import functools
import json
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from dunkllab import dunkl_kernel, harness, kernels, quadrature, runner, transform
from dunkllab.checks import CHECKS, Derived
from dunkllab import (AccuracyError, DomainTooSmallError, GridSampled,
                      KernelSpec, PolyGauss, WeightedContext, apply_dunkl,
                      dunkl_convolve, dunkl_transform, gaussian,
                      heat_kernel, hermite_gauss, inverse_at_points,
                      inverse_dunkl_transform, monomial_gauss,
                      plancherel_defect, product_z2, q_on_grid, rank1)
from dunkllab.dunkl_kernel import kernel_imag_parts
from dunkllab.quadrature import AxisRule, refined_n_half
from dunkllab.runner import run_check
from dunkllab.transform import (KernelMatrixCache, SpectralFunction,
                                _real_part_checked)


def ctx_rank1(k: float) -> WeightedContext:
    return WeightedContext(rank1(k))


class TestGaussianFixedPoint:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_rank1(self, k):
        ctx = ctx_rank1(k)
        tf = dunkl_transform(ctx, gaussian(1))
        xi = ctx.freq_grid.points()[:, 0]
        err = np.max(np.abs(tf.values.ravel() - np.exp(-xi**2 / 2)))
        assert err < 1e-10

    def test_two_dim_product(self):
        ctx = WeightedContext(product_z2([0.5, 0.5]))
        tf = dunkl_transform(ctx, gaussian(2))
        xi = ctx.freq_grid.points()
        expect = np.exp(-np.sum(xi**2, axis=1) / 2).reshape(ctx.freq_grid.shape)
        assert np.max(np.abs(tf.values - expect)) < 1e-10

    def test_imaginary_part_vanishes_for_even_functions(self):
        tf = dunkl_transform(ctx_rank1(0.75), gaussian(1))
        assert np.max(np.abs(tf.values.imag)) < 1e-12


def generalized_hermite(n: int, k: float, x: np.ndarray) -> np.ndarray:
    """h_n(x) = x^(n mod 2) L_m^(k - 1/2 + n mod 2)(x^2) exp(-x^2/2), m = n // 2:
    an eigenfunction of the rank-one Dunkl transform with eigenvalue (-i)^n
    (Rosler, Comm. Math. Phys. 192 (1998))."""
    odd = n % 2
    return (x ** odd * eval_genlaguerre(n // 2, k - 0.5 + odd, x * x)
            * np.exp(-x * x / 2.0))


def relative_error(got: np.ndarray, expect: np.ndarray) -> float:
    return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))


@functools.cache
def default_context(ks: tuple) -> WeightedContext:
    return WeightedContext(rank1(ks[0]) if len(ks) == 1 else product_z2(ks))


class TestHermiteEigenfunctions:
    """F h_n = (-i)^n h_n on the default grids, to a relative error set at
    1.5 times the worst one measured (n <= 8; OpenBLAS 0.3.31 at 1, 2 and 4
    threads).  The error is the quadrature c_k's own (ROADMAP item 7)."""

    #: measured worst 1.31e-13, 1.10e-14 and 2.81e-14
    RANK1_TOL = {0.0: 2.0e-13, 0.5: 1.7e-14, 1.3: 4.3e-14}
    #: measured worst over both directions 1.13e-13, 1.73e-14 and 5.87e-14
    RANK2_TOL = {(0.0, 0.0): 1.7e-13, (0.5, 1.3): 2.6e-14,
                 (1.3, 0.0): 8.9e-14}
    #: tensor degrees (n, m): n + m odd, then even (real spectra)
    RANK2_DEGREES = [(1, 0), (2, 1), (3, 4), (0, 7), (7, 8),
                     (0, 0), (1, 1), (2, 2), (5, 3), (4, 4), (8, 0), (6, 2),
                     (8, 8)]

    @pytest.mark.parametrize("k", sorted(RANK1_TOL))
    @pytest.mark.parametrize("n", range(9))
    def test_rank1_forward(self, k, n):
        ctx = default_context((k,))
        x, xi = ctx.grid.axis_nodes(0), ctx.freq_grid.axis_nodes(0)
        got = dunkl_transform(ctx, GridSampled(
            grid=ctx.grid, values=generalized_hermite(n, k, x))).values
        expect = (-1j) ** n * generalized_hermite(n, k, xi)
        assert relative_error(got, expect) < self.RANK1_TOL[k]

    @staticmethod
    def tensor(ks, n, m, grid) -> np.ndarray:
        return np.multiply.outer(
            generalized_hermite(n, ks[0], grid.axis_nodes(0)),
            generalized_hermite(m, ks[1], grid.axis_nodes(1)))

    @pytest.mark.parametrize("ks", sorted(RANK2_TOL))
    def test_rank2_forward_of_tensor_products(self, ks):
        ctx = default_context(ks)
        for n, m in self.RANK2_DEGREES:
            got = dunkl_transform(ctx, GridSampled(
                grid=ctx.grid, values=self.tensor(ks, n, m, ctx.grid))).values
            expect = (-1j) ** (n + m) * self.tensor(ks, n, m, ctx.freq_grid)
            assert relative_error(got, expect) < self.RANK2_TOL[ks], (n, m)

    @pytest.mark.parametrize("ks", sorted(RANK2_TOL))
    def test_rank2_inverse_of_real_spectra(self, ks):
        ctx = default_context(ks)
        for n, m in self.RANK2_DEGREES:
            if (n + m) % 2:
                continue
            back = inverse_dunkl_transform(
                ctx, self.tensor(ks, n, m, ctx.freq_grid))
            expect = (-1) ** ((n + m) // 2) * self.tensor(ks, n, m, ctx.grid)
            assert relative_error(back.values, expect) < self.RANK2_TOL[ks], \
                (n, m)


class TestPlancherel:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.5])
    def test_norm_preserved_on_battery(self, k):
        ctx = ctx_rank1(k)
        for f in [gaussian(1), hermite_gauss(1), hermite_gauss(3, 0.4),
                  monomial_gauss([2], 0.6)]:
            assert plancherel_defect(ctx, f) < 1e-8

    def test_two_dim(self):
        ctx = WeightedContext(product_z2([0.5, 1.0]))
        for f in [gaussian(2), monomial_gauss([1, 2], [0.5, 0.5])]:
            assert plancherel_defect(ctx, f) < 1e-8


class TestInversion:
    def test_roundtrip_recovers_samples(self):
        ctx = ctx_rank1(0.75)
        f = hermite_gauss(2, 0.45)
        back = inverse_dunkl_transform(ctx, dunkl_transform(ctx, f))
        assert np.max(np.abs(back.values - f.values_on(ctx.grid))) < 1e-9
        assert back.imag_residue < 1e-9

    def test_inverse_at_points_matches_grid_inverse(self):
        ctx = ctx_rank1(0.5)
        tf = dunkl_transform(ctx, hermite_gauss(2))
        on_grid = inverse_dunkl_transform(ctx, tf).values.ravel()
        at_pts = inverse_at_points(ctx, tf, ctx.grid.points())
        assert np.max(np.abs(at_pts - on_grid)) < 1e-10

    def test_inverse_at_points_two_dim(self):
        ctx = WeightedContext(product_z2([0.5, 0.5]))
        f = gaussian(2)
        tf = dunkl_transform(ctx, f)
        pts = np.array([[0.0, 0.0], [0.7, -0.3], [1.5, 1.5]])
        vals = inverse_at_points(ctx, tf, pts)
        assert np.allclose(vals.real, f(pts), atol=1e-9)
        assert np.allclose(vals.imag, 0.0, atol=1e-9)

    def test_inverse_accepts_raw_arrays_and_callables(self):
        ctx = ctx_rank1(0.0)
        sym = lambda p: np.exp(-np.sum(p**2, axis=1))
        a = inverse_dunkl_transform(ctx, sym).values
        b = inverse_dunkl_transform(
            ctx, sym(ctx.freq_grid.points()).reshape(ctx.freq_grid.shape)).values
        assert np.array_equal(a, b)


class TestDerivativeIdentity:
    """The transform carries the difference-differential operator to
    multiplication by i xi."""

    @pytest.mark.parametrize("k", [0.0, 0.8])
    def test_rank1(self, k):
        ctx = ctx_rank1(k)
        f = hermite_gauss(1, 0.55)
        lhs = dunkl_transform(ctx, apply_dunkl(ctx.system, [1.0], f)).values.ravel()
        xi = ctx.freq_grid.points()[:, 0]
        rhs = 1j * xi * dunkl_transform(ctx, f).values.ravel()
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestConvolution:
    def test_classical_gaussian_convolution_oracle(self):
        # at k = 0 the construction reduces to the classical convolution:
        # (e^{-x^2/2} * e^{-x^2/2})(x) = sqrt(pi) e^{-x^2/4}
        ctx = ctx_rank1(0.0)
        conv = dunkl_convolve(ctx, gaussian(1), gaussian(1))
        x = ctx.grid.points()[:, 0]
        expect = np.sqrt(np.pi) * np.exp(-x**2 / 4)
        assert np.max(np.abs(conv.values.real.ravel() - expect)) < 1e-9

    def test_convolution_commutes(self):
        ctx = ctx_rank1(1.0)
        f, g = gaussian(1, 0.5), hermite_gauss(2, 0.6)
        fg = dunkl_convolve(ctx, f, g).values
        gf = dunkl_convolve(ctx, g, f).values
        assert np.max(np.abs(fg - gf)) < 1e-10

    def test_gaussian_semigroup_under_convolution(self):
        # weighted analogue of the Gaussian self-reproducing property,
        # checked against an independent transform-side computation
        ctx = ctx_rank1(0.5)
        conv = dunkl_convolve(ctx, gaussian(1), gaussian(1))
        sym = SpectralFunction(
            grid=ctx.freq_grid,
            values=np.exp(-ctx.freq_grid.points()[:, 0] ** 2)
            .reshape(ctx.freq_grid.shape))
        expect = ctx.c_k * inverse_dunkl_transform(ctx, sym).values
        assert np.max(np.abs(conv.values - expect)) < 1e-10


class TestGuards:
    def test_undecayed_function_rejected(self):
        ctx = ctx_rank1(0.0)
        wide = PolyGauss(np.ones(1), np.array([0.01]))
        with pytest.raises(DomainTooSmallError):
            dunkl_transform(ctx, wide)

    def test_nan_input_raises_accuracy_error(self):
        # one NaN sample used to pass the shell guard and turn all 1600
        # spectral values into NaN
        ctx = WeightedContext(product_z2([0.5, 0.5]), box=6.0, n_half=20,
                              freq_n_half=20)
        vals = gaussian(2).values_on(ctx.grid)
        vals[7, 11] = np.nan
        with pytest.raises(AccuracyError,
                           match="transform input is not finite"):
            dunkl_transform(ctx, GridSampled(grid=ctx.grid, values=vals))

    def test_spectral_function_bound_to_its_grid(self):
        ctx = ctx_rank1(0.0)
        tf = dunkl_transform(ctx, gaussian(1))
        other = ctx.with_grids(freq_n_half=ctx.freq_n_half + 10)
        with pytest.raises(ValueError):
            tf.values_on(other.freq_grid)

    def test_spectral_function_rejects_other_box_of_same_shape(self):
        ctx = ctx_rank1(0.5)
        tf = dunkl_transform(ctx, gaussian(1))
        narrow = ctx.with_grids(freq_box=9.0)
        assert narrow.freq_grid.shape == ctx.freq_grid.shape
        with pytest.raises(ValueError, match="bound to its own grid"):
            inverse_dunkl_transform(narrow, tf)

    def test_grid_sampled_rejects_other_box_of_same_shape(self):
        # a box-12 field read on box-8 nodes of the same count
        ctx = ctx_rank1(0.5)
        sampled = GridSampled(grid=ctx.grid,
                              values=gaussian(1).values_on(ctx.grid))
        narrow = ctx.with_grids(box=8.0)
        assert narrow.grid.shape == ctx.grid.shape
        with pytest.raises(ValueError, match="bound to its own grid"):
            dunkl_transform(narrow, sampled)

    def test_grid_sampled_accepts_equal_geometry(self):
        ctx = ctx_rank1(0.5)
        sampled = GridSampled(grid=ctx.grid,
                              values=gaussian(1).values_on(ctx.grid))
        twin = WeightedContext(ctx.system)
        assert twin.grid is not ctx.grid
        assert np.array_equal(dunkl_transform(twin, sampled).values,
                              dunkl_transform(ctx, sampled).values)


class TestRealPartCheck:
    @pytest.mark.parametrize("values", [
        [1.0 + 0j, np.nan + 0j, 2.0 + 0j],
        [complex(np.nan, np.nan), 1.0 + 1.0j],
        [1.0 + 0j, np.inf + 0j, -2.0 + 0j],
        [1.0 + 0j, -np.inf + 0j, -2.0 + 0j]])
    def test_real_part_not_finite_raises(self, values):
        values = np.asarray(values)
        with pytest.raises(AccuracyError, match="probe is not finite"):
            _real_part_checked(values, "probe")
        with pytest.raises(AccuracyError, match="probe is not finite"):
            _real_part_checked(values.real.copy(), "probe", 0.0)

    @pytest.mark.parametrize("residue", [np.nan, np.inf])
    def test_residue_not_finite_raises(self, residue):
        values = np.array([1.0, complex(3.0, residue), -2.0])
        with pytest.raises(AccuracyError, match=f"imaginary residue {residue}"):
            _real_part_checked(values, "probe")
        with pytest.raises(AccuracyError, match=f"imaginary residue {residue}"):
            _real_part_checked(values.real.copy(), "probe", residue)

    def test_residue_over_tolerance_raises(self):
        with pytest.raises(AccuracyError, match="imaginary residue 0.001"):
            _real_part_checked(np.array([2.0 + 0j, -3.0 + 1e-3j]), "probe")
        with pytest.raises(AccuracyError, match="scale 3"):
            _real_part_checked(np.array([2.0, -3.0]), "probe", 1e-3)


def entrywise(rows: np.ndarray, cols: np.ndarray, k: float) -> np.ndarray:
    """E(i r_a c_b), one kernel evaluation per entry."""
    re, im = kernel_imag_parts(np.outer(rows, cols), k)
    return re + 1j * im


#: whole operators by (id(freq), id(space), k, forward), each entry with
#: its two rules, which it keeps alive so that their ids stay theirs
_WHOLE_OPERATORS: dict = {}


def whole_operator(freq: AxisRule, space: AxisRule, k: float,
                   forward: bool) -> np.ndarray:
    """The weighted operator of one direction with every entry evaluated:
    conj(E) * w_x (frequency x space) or E.T * w_xi (space x frequency).
    Computed once per pair of rule objects; read-only."""
    key = (id(freq), id(space), k, forward)
    if key not in _WHOLE_OPERATORS:
        if forward:
            op = (np.conj(entrywise(freq.nodes, space.nodes, k))
                  * space.weights[None, :])
        else:
            op = entrywise(space.nodes, freq.nodes, k) * freq.weights[None, :]
        op.flags.writeable = False
        _WHOLE_OPERATORS[key] = (freq, space, op)
    return _WHOLE_OPERATORS[key][2]


class TestFoldedKernelMatrix:
    """The cache holds the rows of the non-negative nodes of each weighted
    entrywise kernel matrix, bit for bit, in C order."""

    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0])
    @pytest.mark.parametrize("halves", [(40, 40), (30, 55)])
    def test_bytes_equal_entrywise_kernel(self, k, halves):
        space = AxisRule.build(k, 6.0, halves[0])
        freq = AxisRule.build(k, 20.0, halves[1])
        cache = KernelMatrixCache()
        for forward in (True, False):
            got = cache.matrix(freq, space, k, forward)
            expect = whole_operator(freq, space, k, forward)
            h = expect.shape[0] // 2
            assert got.shape == (h, expect.shape[1])
            assert got.tobytes() == expect[h:].tobytes()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0])
    def test_cache_holds_half_the_bytes_of_both_operators(self, k):
        space = AxisRule.build(k, 6.0, 45)
        freq = AxisRule.build(k, 20.0, 37)
        cache = KernelMatrixCache()
        cache.matrix(freq, space, k, forward=True)
        whole = sum(whole_operator(freq, space, k, forward).nbytes
                    for forward in (True, False))
        assert whole == 2 * 74 * 90 * 16
        assert cache._bytes == whole // 2

    @pytest.mark.parametrize("nodes", [np.array([-1.0, 0.5, 1.0]),
                                       np.array([-1.0, 0.5, 0.7, 1.0])])
    def test_unmirrored_nodes_rejected(self, nodes):
        mirrored = AxisRule.build(0.5, 6.0, 10)
        other = AxisRule(nodes=nodes, weights=np.ones_like(nodes), k=0.5,
                         half_width=1.0, n_half=nodes.size // 2)
        with pytest.raises(ValueError, match="mirrored"):
            KernelMatrixCache().matrix(mirrored, other, 0.5, forward=True)

    def test_one_quadrant_evaluation_serves_both_directions(self,
                                                            monkeypatch):
        sizes = []
        real = transform.kernel_imag_parts

        def counting(u, k):
            sizes.append(np.size(u))
            return real(u, k)

        monkeypatch.setattr(transform, "kernel_imag_parts", counting)
        space = AxisRule.build(0.5, 6.0, 30)
        freq = AxisRule.build(0.5, 20.0, 45)
        cache = KernelMatrixCache()
        for forward in (True, False, True, False):
            cache.matrix(freq, space, 0.5, forward=forward)
        assert sizes == [30 * 45]


def old_axis_transform(ctx, vals, src, dst, conjugate):
    """The transform as it was written before the cache held weighted
    operators: raw E per axis, conjugated and weighted on every call."""
    ks = ctx.system.ks
    out = np.asarray(vals, dtype=complex)
    for d in range(ctx.dim):
        mat = entrywise(dst.axis_nodes(d), src.axis_nodes(d), ks[d])
        if conjugate:
            mat = np.conj(mat)
        weighted = mat * src.axes[d].weights[None, :]
        out = np.moveaxis(np.tensordot(weighted, out, axes=([1], [d])), 0, d)
    return out / ctx.c_k


class TestAxisTransformOracle:
    @pytest.mark.parametrize("ctx", [
        WeightedContext(rank1(0.5), n_half=60, freq_n_half=50),
        WeightedContext(product_z2([0.25, 1.0]), n_half=30, freq_n_half=24)],
        ids=["dim1", "dim2"])
    def test_forward_and_inverse_bytes_equal_old_transform(self, ctx):
        f = monomial_gauss([1] * ctx.dim, [0.6] * ctx.dim)
        vals = f.values_on(ctx.grid)
        got = dunkl_transform(ctx, f).values
        expect = old_axis_transform(ctx, vals, ctx.grid, ctx.freq_grid, True)
        assert got.tobytes() == expect.tobytes()
        assert got.strides == expect.strides
        back = inverse_dunkl_transform(ctx, got)
        expect_back = old_axis_transform(ctx, expect, ctx.freq_grid,
                                         ctx.grid, False)
        assert_same_array(back.values, expect_back.real.copy(order="K"))
        assert back.imag_residue == np.max(np.abs(expect_back.imag))


def unblocked_transform(ctx, vals, src, dst, forward, then=None):
    """The transform with whole arrays: whole operators, one complex copy of
    the input, whole products, the scalings on the whole result."""
    freq, space = (dst, src) if forward else (src, dst)
    out = np.asarray(vals, dtype=complex)
    for d in range(ctx.dim):
        op = whole_operator(freq.axes[d], space.axes[d], ctx.system.ks[d],
                            forward)
        out = np.moveaxis(np.tensordot(op, out, axes=([1], [d])), 0, d)
    out /= ctx.c_k
    if then is not None:
        then[0](out, then[1], out=out)
    return out


def signed_field(grid, rng, dtype, order):
    """Decayed noise on the grid, zero (of either sign) on the boundary
    shell and at scattered interior nodes."""
    r2 = grid.outer_sum(lambda d, x: x * x)
    vals = np.exp(-r2 / 4.0) * rng.standard_normal(grid.shape)
    if dtype is complex:
        vals = vals + 1j * np.exp(-r2 / 4.0) * rng.standard_normal(grid.shape)
    zeros = grid.shell_mask() | (rng.random(grid.shape) < 0.05)
    vals[zeros] = np.where(rng.random(grid.shape) < 0.5, 0.0, -0.0)[zeros]
    return np.asarray(vals, order=order)


def assert_same_array(got, expect):
    assert got.shape == expect.shape and got.dtype == expect.dtype
    assert got.tobytes(order="A") == expect.tobytes(order="A")
    assert got.strides == expect.strides
    assert np.array_equal(np.signbit(got.real), np.signbit(expect.real))


BLOCK_CONTEXTS = [
    WeightedContext(rank1(0.5), n_half=45, freq_n_half=37),
    WeightedContext(product_z2([0.25, 1.0]), n_half=45, freq_n_half=37)]

#: even halves on every axis (76 spatial and 84 frequency nodes, multiples
#: of 4, not of 8): a real 2-D operand's last contraction takes the half
#: of the operator and fills the other rows by point reflection
EVEN_CONTEXT = WeightedContext(product_z2([0.25, 1.0]), n_half=38,
                               freq_n_half=42)
#: the contexts of the blocked and half-operator products, with their ids
GRID_CONTEXTS = BLOCK_CONTEXTS + [EVEN_CONTEXT]
GRID_IDS = ["dim1", "dim2", "dim2-even"]


class TestBlockedTransform:
    """Blocks of 14 columns or rows: the 90 spatial and 74 frequency nodes
    per axis (76 and 84 on the even-half context) are above the block size
    and not a multiple of it."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", 14 * 16 * 90)

    @pytest.mark.parametrize("ctx", GRID_CONTEXTS, ids=GRID_IDS)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_forward_bytes_and_strides_equal_whole_products(self, ctx, order,
                                                            dtype):
        vals = signed_field(ctx.grid, np.random.default_rng(11), dtype, order)
        got = dunkl_transform(ctx, GridSampled(grid=ctx.grid,
                                               values=vals)).values
        expect = unblocked_transform(ctx, vals, ctx.grid, ctx.freq_grid, True)
        assert_same_array(got, expect)

    @pytest.mark.parametrize("ctx", GRID_CONTEXTS, ids=GRID_IDS)
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("then", [None, (np.multiply, 1.7),
                                      (np.divide, 2.3)])
    def test_inverse_bytes_and_strides_equal_whole_products(self, ctx, order,
                                                            dtype, then):
        vals = signed_field(ctx.freq_grid, np.random.default_rng(12), dtype,
                            order)
        expect = unblocked_transform(ctx, vals, ctx.freq_grid, ctx.grid,
                                     False, then)
        real, residue = transform._axis_transform(
            ctx, vals, ctx.freq_grid, ctx.grid, False, then)
        assert_same_array(real, expect.real.copy(order="K"))
        assert residue == np.max(np.abs(expect.imag))

    def test_convolution_equals_real_part_of_whole_products(self):
        ctx = BLOCK_CONTEXTS[1]
        f, g = gaussian(2, 0.5), monomial_gauss([1, 2], [0.6, 0.4])
        product = (dunkl_transform(ctx, f).values
                   * dunkl_transform(ctx, g).values)
        whole = unblocked_transform(ctx, product, ctx.freq_grid, ctx.grid,
                                    False, (np.multiply, ctx.c_k))
        real = dunkl_convolve(ctx, f, g)
        assert_same_array(real.values, whole.real.copy(order="K"))
        assert real.imag_residue == np.max(np.abs(whole.imag))


#: odd halves on the first contracted axis: forward rows 74 and 82
#: frequency nodes, inverse rows 90 and 82 spatial nodes; the ks differ
#: per axis, so the two axes never share a cached operator
MIRROR_CONTEXTS = [
    WeightedContext(product_z2([0.25, 1.0]), n_half=45, freq_n_half=37),
    WeightedContext(product_z2([1.0, 0.5]), n_half=41, freq_n_half=41)]
#: even destination halves, whose last contraction is mirrored too: forward
#: rows 84, 80 and 96 frequency nodes (the last from 74 spatial nodes, an
#: odd source half), inverse rows 76 and 96 spatial nodes and, from 96
#: frequency nodes, 74 (odd again: two-part products)
EVEN_MIRROR_CONTEXTS = [
    EVEN_CONTEXT,
    WeightedContext(product_z2([1.0, 0.5]), n_half=48, freq_n_half=40),
    WeightedContext(product_z2([0.5, 0.25]), n_half=37, freq_n_half=48)]


def zero_lined_field(grid, pattern, order, dtype=float):
    """A field of ``dtype`` in memory order ``order``: ``signed_field`` with
    lines of +0.0 and -0.0 inside the grid (two nodes in 1-D; two whole
    columns and a row in 2-D), or all +0.0, or all -0.0, or zero but for
    one equal pair at mirrored nodes, whose 1-D transforms have imaginary
    parts that cancel to exact zeros."""
    negative_zero = -0.0 if dtype is float else complex(-0.0, -0.0)
    if pattern == "zeros":
        return np.zeros(grid.shape, dtype=dtype, order=order)
    if pattern == "negative-zeros":
        return np.full(grid.shape, negative_zero, order=order)
    if pattern == "mirrored-pair":
        vals = np.zeros(grid.shape, dtype=dtype, order=order)
        n = grid.shape[0]
        value = 0.7 if dtype is float else 0.7 - 0.2j
        vals[n // 3] = vals[n - 1 - n // 3] = value
        return vals
    vals = signed_field(grid, np.random.default_rng(13), dtype, order)
    n = grid.shape[-1]
    vals[..., n // 3] = 0.0
    vals[..., n // 2 + 1] = negative_zero
    if grid.dim == 2:
        vals[grid.shape[0] // 4, :] = negative_zero
    return vals


@pytest.fixture(params=["one-block", "multi-block"])
def blocks(request, monkeypatch):
    """Default ``BLOCK_BYTES`` (one block), or blocks of 14 columns or
    rows."""
    if request.param == "multi-block":
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", 14 * 16 * 90)


class TestHalfOperatorProducts:
    """Products with the cached halves, the negative rows formed from
    them, equal the whole-operator products byte for byte: 1-D and 2-D,
    real and complex operands, odd halves (37 and 45) and even ones (38
    and 42) in both directions, and zeros of either sign."""

    @pytest.mark.parametrize("ctx", GRID_CONTEXTS, ids=GRID_IDS)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("pattern", ["lines", "zeros", "negative-zeros",
                                         "mirrored-pair"])
    def test_forward_bytes_equal_whole_operator_products(self, blocks, ctx,
                                                         dtype, pattern):
        vals = zero_lined_field(ctx.grid, pattern, "C", dtype)
        got = transform._axis_transform(ctx, vals, ctx.grid, ctx.freq_grid,
                                         True)
        expect = unblocked_transform(ctx, vals, ctx.grid, ctx.freq_grid, True)
        assert_same_array(got, expect)

    @pytest.mark.parametrize("ctx", GRID_CONTEXTS, ids=GRID_IDS)
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("pattern", ["lines", "zeros", "negative-zeros",
                                         "mirrored-pair"])
    def test_inverse_bytes_equal_whole_operator_products(self, blocks, ctx,
                                                         dtype, pattern):
        vals = zero_lined_field(ctx.freq_grid, pattern, "F", dtype)
        then = (np.multiply, 1.7)
        expect = unblocked_transform(ctx, vals, ctx.freq_grid, ctx.grid,
                                     False, then)
        real, residue = transform._axis_transform(
            ctx, vals, ctx.freq_grid, ctx.grid, False, then)
        assert_same_array(real, expect.real.copy(order="K"))
        assert residue == np.max(np.abs(expect.imag))

    def test_one_dim_even_spectrum_has_exact_zeros(self):
        # the case for which the 1-D mirror adds +0.0
        ctx = BLOCK_CONTEXTS[0]
        vals = zero_lined_field(ctx.grid, "mirrored-pair", "C")
        spectrum = transform._axis_transform(ctx, vals, ctx.grid,
                                             ctx.freq_grid, True)
        assert np.any(spectrum.imag == 0.0)


class TestMirroredFirstContraction:
    """Row -a of each weighted operator is the conjugate of row a, so a
    real operand's first contraction is formed on rows h: and mirrored, and
    at even destination halves its last contraction too.  The results keep
    the bytes and strides of the whole products, with one block (default
    ``BLOCK_BYTES``) or blocks of 14 columns or rows."""

    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0])
    def test_operator_rows_mirror_by_conjugation(self, k):
        space = AxisRule.build(k, 6.0, 45)
        freq = AxisRule.build(k, 20.0, 37)
        for forward in (True, False):
            op = whole_operator(freq, space, k, forward)
            h = op.shape[0] // 2
            assert h % 2 == 1
            assert op[:h].tobytes() == np.conj(op[h:][::-1]).tobytes()

    @pytest.mark.parametrize("ctx", MIRROR_CONTEXTS + EVEN_MIRROR_CONTEXTS,
                             ids=["74", "82", "84", "80", "96-from-74"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("pattern", ["lines", "zeros", "negative-zeros"])
    def test_real_forward_bytes_and_strides_equal_whole_products(
            self, blocks, ctx, order, pattern):
        vals = zero_lined_field(ctx.grid, pattern, order)
        got = dunkl_transform(ctx, GridSampled(grid=ctx.grid,
                                               values=vals)).values
        expect = unblocked_transform(ctx, vals, ctx.grid, ctx.freq_grid, True)
        assert_same_array(got, expect)

    @pytest.mark.parametrize("ctx", MIRROR_CONTEXTS + EVEN_MIRROR_CONTEXTS,
                             ids=["90", "82", "76", "96", "74-from-96"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("pattern", ["lines", "zeros", "negative-zeros"])
    @pytest.mark.parametrize("then", [None, (np.multiply, 1.7),
                                      (np.divide, 2.3)])
    def test_real_inverse_bytes_and_strides_equal_whole_products(
            self, blocks, ctx, order, pattern, then):
        vals = zero_lined_field(ctx.freq_grid, pattern, order)
        expect = unblocked_transform(ctx, vals, ctx.freq_grid, ctx.grid,
                                     False, then)
        real, residue = transform._axis_transform(
            ctx, vals, ctx.freq_grid, ctx.grid, False, then)
        assert_same_array(real, expect.real.copy(order="K"))
        assert residue == np.max(np.abs(expect.imag))

    @pytest.mark.parametrize("forward", [True, False],
                             ids=["forward", "real-part-inverse"])
    def test_real_first_product_takes_the_non_negative_rows(self, monkeypatch,
                                                            forward):
        monkeypatch.setattr(quadrature, "BLOCK_BYTES", 14 * 16 * 90)
        ctx = MIRROR_CONTEXTS[0]
        src, dst = ((ctx.grid, ctx.freq_grid) if forward
                    else (ctx.freq_grid, ctx.grid))
        freq, space = (dst, src) if forward else (src, dst)
        half = transform._CACHE.matrix(freq.axes[0], space.axes[0],
                                       ctx.system.ks[0], forward)
        vals = zero_lined_field(src, "lines", "C")
        columns = []
        real_dot = np.dot

        def spy(a, b, *args, **kwargs):
            if a is half:
                columns.append(b.shape[1])
            return real_dot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "dot", spy)
        if forward:
            dunkl_transform(ctx, GridSampled(grid=src, values=vals))
        else:
            transform._axis_transform(ctx, vals, src, dst, False)
        assert len(columns) > 1 and sum(columns) == vals.shape[1]

    @pytest.mark.parametrize("forward", [True, False],
                             ids=["forward", "real-part-inverse"])
    @pytest.mark.parametrize("ctx, dtype, parts", [
        (EVEN_CONTEXT, float, 1), (MIRROR_CONTEXTS[0], float, 2),
        (EVEN_CONTEXT, complex, 2)], ids=["even-real", "odd-real",
                                          "even-complex"])
    def test_last_product_takes_half_the_rows_at_even_halves(
            self, monkeypatch, forward, ctx, dtype, parts):
        # source and destination node counts differ on both contexts, so
        # only the last product has first.T, (source, destination), as b
        src, dst = ((ctx.grid, ctx.freq_grid) if forward
                    else (ctx.freq_grid, ctx.grid))
        vals = zero_lined_field(src, "lines", "C", dtype)
        rows = []
        real_dot = np.dot

        def spy(a, b, *args, **kwargs):
            if b.shape == (src.shape[1], dst.shape[0]):
                rows.append(a.shape[0])
            return real_dot(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "dot", spy)
        transform._axis_transform(ctx, vals, src, dst, forward)
        assert sum(rows) == parts * dst.shape[1] // 2


class TestEvenDefaultHalves:
    """Every grid the defaults build has an even half, refined or not, so
    the real 2-D transforms of the checks take the mirrored last
    contraction."""

    def test_defaults_and_their_refinements_are_even(self):
        halves = [p.default for check in CHECKS.values() for p in check.params
                  if p.name in ("n_half", "freq_n_half")
                  and not isinstance(p.default, Derived)]
        unset = dict.fromkeys(("box", "n_half", "freq_box", "freq_n_half"))
        for system in (rank1(0.5), product_z2([0.5, 0.5])):
            ctx = WeightedContext(system)
            halves += [ctx.n_half, ctx.freq_n_half]
            for ell in (1, 2, 3):
                spec = dataclasses.replace(KernelSpec.heat(ctx.dim), ell=ell)
                for rule in (kernels.spatial_rule(spec),
                             kernels.convolution_rule(spec, 1.0)):
                    grids = kernels.check_context(ctx, unset, **rule)
                    halves += [grids.n_half, grids.freq_n_half]
        assert {80, 200, 240, 400, 600} <= set(halves)
        for n in halves:
            assert n % 2 == 0 and refined_n_half(n) % 2 == 0, n


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedMemory:
    """On 1000^2 spatial nodes (100^2 frequency nodes) the blocked paths
    stay below one complex grid-sized array, 16 n^2 bytes."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return WeightedContext(product_z2([0.5, 0.5]), box=12.0, n_half=500,
                               freq_box=8.0, freq_n_half=50)

    def test_real_forward_allocates_less_than_a_complex_copy(self, ctx):
        n = ctx.grid.shape[0]
        f = GridSampled(grid=ctx.grid, values=heat_kernel(ctx, ctx.grid, 1.0))
        dunkl_transform(ctx, f)       # c_k and the operators, outside
        assert _traced_peak(lambda: dunkl_transform(ctx, f)) < 16 * n * n

    def test_q_on_grid_never_holds_a_complex_grid_array(self, ctx):
        n = ctx.grid.shape[0]
        spec = KernelSpec.heat(2)
        q_on_grid(ctx, spec)
        assert _traced_peak(lambda: q_on_grid(ctx, spec)) < 16 * n * n


class TestKernelMatrixCacheThreads:
    def test_one_build_for_concurrent_misses_on_one_key(self, monkeypatch):
        builds = []
        release = threading.Event()
        real = transform._weighted_operators

        def slow_build(*args):
            builds.append(args)
            release.wait(5.0)
            return real(*args)

        monkeypatch.setattr(transform, "_weighted_operators", slow_build)
        cache = KernelMatrixCache()
        rule = AxisRule.build(0.5, 6.0, 20)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(cache.matrix, rule, rule, 0.5, True)
                       for _ in range(2)]
            while not builds:
                time.sleep(0.001)
            time.sleep(0.05)  # the second lookup now waits on the first
            release.set()
            first, second = (f.result() for f in futures)
        assert len(builds) == 1
        assert first is second

    def test_byte_count_matches_store_under_eviction(self, monkeypatch):
        rules = [AxisRule.build(0.5, 6.0, n) for n in range(10, 34)]
        monkeypatch.setattr(transform, "CACHE_BYTES",
                            3 * rules[-1].size ** 2 * 16)
        cache = KernelMatrixCache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for half in pool.map(lambda r: cache.matrix(r, r, 0.5, True),
                                     rules * 2, timeout=60):
                    assert 2 * half.shape[0] == half.shape[1]
        finally:
            sys.setswitchinterval(interval)
        assert cache._bytes == sum(op.nbytes for ops in cache._store.values()
                                   for op in ops)
        assert cache._bytes <= transform.CACHE_BYTES
        assert not cache._building


class TestPointSums:
    """``point_sums`` takes the point sums of ``inverse_at_points`` and
    ``two_point_kernel`` in both ranks; in rank 2 it splits them over
    blocks of points, bit for bit."""

    @pytest.fixture(params=[2, 3])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 33, 300])
    @pytest.mark.parametrize("real_values", [True, False])
    @pytest.mark.parametrize("split_min", [1, transform.SPLIT_MIN_PRODUCTS])
    def test_bytes_equal_the_whole_einsum(self, cores, monkeypatch, m,
                                          real_values, split_min):
        monkeypatch.setattr(transform, "SPLIT_MIN_PRODUCTS", split_min)
        rng = np.random.default_rng(m)
        left = rng.normal(size=(m, 70)) + 1j * rng.normal(size=(m, 70))
        right = rng.normal(size=(m, 90)) + 1j * rng.normal(size=(m, 90))
        values = rng.normal(size=(70, 90))
        if not real_values:
            values = values + 1j * rng.normal(size=(70, 90))
        got = transform.point_sums([left, right], values)
        expect = np.einsum("ma,mb,ab->m", left, right, values)
        assert got.dtype == expect.dtype and got.shape == (m,)
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("m", [0, 1, 5, 300])
    @pytest.mark.parametrize("real_values", [True, False])
    def test_rank_one_is_the_row_product(self, m, real_values):
        rng = np.random.default_rng(m)
        rows = rng.normal(size=(m, 70)) + 1j * rng.normal(size=(m, 70))
        values = rng.normal(size=(70, 1))
        if not real_values:
            values = values + 1j * rng.normal(size=(70, 1))
        got = transform.point_sums([rows], values)
        expect = rows @ values.reshape(-1)
        assert got.dtype == expect.dtype and got.shape == (m,)
        assert got.tobytes() == expect.tobytes()

    def test_evaluators_equal_their_one_core_bytes(self, cores, monkeypatch):
        ctx = WeightedContext(product_z2([0.5, 0.5]))
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-3.0, 3.0, (2, 40, 2))
        spec = KernelSpec.heat(2)

        def evaluate():
            return (inverse_at_points(ctx, lambda xi: np.exp(
                        -np.sum(xi**2, axis=1)), x).tobytes(),
                    kernels.two_point_kernel(ctx, spec, x, y).tobytes())

        split = evaluate()
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: 1)
        assert split == evaluate()


class TestOperatorBuildsOnTwoWorkers:
    """Two runner workers building cold operators at once both split their
    kernel evaluations over the one pool; the bytes do not move."""

    def test_concurrent_builds_equal_serial_builds(self, monkeypatch):
        pairs = [(AxisRule.build(0.5, 20.0, n), AxisRule.build(0.5, 6.0, n))
                 for n in (160, 170)]
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: 1)
        serial = [transform._weighted_operators(freq, space, 0.5)
                  for freq, space in pairs]
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: 2)
        with ThreadPoolExecutor(max_workers=2) as workers:
            split = list(workers.map(
                lambda pair: transform._weighted_operators(*pair, 0.5),
                pairs))
        for got, expect in zip(split, serial):
            assert [op.tobytes() for op in got] == [op.tobytes()
                                                    for op in expect]

    def test_two_worker_reports_equal_one_core_reports(self, tmp_path,
                                                        monkeypatch):
        # two checks that read one cold operator pair, run together on two
        # workers, and then alone on one core
        config = {"system": {"type": "rank1", "k": 0.5}, "workers": 2,
                  "checks": [{"kind": "kernel-semigroup"},
                             {"kind": "kernel-decomposition"}]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(config))
        reports = {}
        for cores, workers in ((2, 2), (1, 1)):
            monkeypatch.setattr(transform, "_CACHE", KernelMatrixCache())
            monkeypatch.setattr(dunkl_kernel, "_cores", lambda: cores)
            config["workers"] = workers
            path.write_text(json.dumps(config))
            out = tmp_path / f"out{cores}"
            monkeypatch.setenv("DUNKLLAB_OUTPUT_DIR", str(out))
            assert runner.run(str(path)) == 0
            # names carry a digest of the config, which names the workers
            reports[cores] = {p.name.rsplit("_", 1)[1]: p.read_bytes()
                              for p in sorted(out.glob("*.json"))}
        assert len(reports[2]) == 2
        assert reports[2] == reports[1]


class TestConvolutionOperands:
    def test_spectral_operand_matches_function_operand(self):
        ctx = ctx_rank1(0.5)
        f, g = gaussian(1, 0.5), hermite_gauss(2, 0.6)
        direct = dunkl_convolve(ctx, f, g).values
        via_spectra = dunkl_convolve(ctx, dunkl_transform(ctx, f),
                                     dunkl_transform(ctx, g)).values
        assert via_spectra.tobytes() == direct.tobytes()

    def test_compact_support_transforms_each_bump_once(self, monkeypatch):
        calls = []
        real = transform.dunkl_transform

        def counting(ctx, f, **kwargs):
            calls.append(f)
            return real(ctx, f, **kwargs)

        monkeypatch.setattr(transform, "dunkl_transform", counting)
        monkeypatch.setattr(harness, "dunkl_transform", counting)
        radii = [0.5, 1.0, 2.0]
        report = run_check(ctx_rank1(0.5), "compact-support-l1",
                           {"radii": radii})
        assert report.passed
        # the other transforms are the translations' (``spectrum_of``) of
        # the masked convolutions, which are grid samples
        bumps = [f for f in calls if not isinstance(f, GridSampled)]
        assert len(bumps) == len(radii)

    @staticmethod
    def _count_transforms(monkeypatch) -> list:
        calls = []
        real = transform.dunkl_transform

        def counting(ctx, f, **kwargs):
            calls.append(f)
            return real(ctx, f, **kwargs)

        for module in (transform, harness, kernels):
            monkeypatch.setattr(module, "dunkl_transform", counting)
        return calls

    def test_self_convolution_transforms_once(self, monkeypatch):
        ctx = ctx_rank1(0.5)
        f = gaussian(1, 0.5)
        expect = dunkl_convolve(ctx, f, dunkl_transform(ctx, f)).values
        calls = self._count_transforms(monkeypatch)
        got = dunkl_convolve(ctx, f, f).values
        assert got.tobytes() == expect.tobytes()
        assert calls == [f]

    def test_semigroup_transforms_the_half_time_kernel_once(self,
                                                            monkeypatch):
        calls = self._count_transforms(monkeypatch)
        report = run_check(ctx_rank1(0.5), "kernel-semigroup")
        assert report.passed
        assert len(calls) == 1

    def test_decomposition_transforms_the_heat_factor_once(self,
                                                           monkeypatch):
        # q_1^(eps+eps0), h_{eps0/2} and the first convolution: three
        calls = self._count_transforms(monkeypatch)
        report = run_check(ctx_rank1(0.5), "kernel-decomposition")
        assert report.passed
        assert len(calls) == 3
