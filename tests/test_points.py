"""The one point convention: ``root_systems.as_points`` and its evaluators.

An (M, dim) array is M points; a vector of dim numbers is one point; in
rank 1 a scalar or an (M,) vector is M points; any other shape raises
ValueError naming the shape.  Every evaluator that knows its dimension
reads its points through this rule and returns one value per point.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dunkllab import (CallableFunction, KernelSpec, WeightedContext,
                      ball_volume, dunkl_translate, evaluate_q, gaussian,
                      heat_kernel, heat_kernel_two_point, inverse_at_points,
                      orbit_distance_pairwise, product_z2, radial_bump,
                      rank1, translate_at_points, two_point_kernel)
from dunkllab.dunkl_kernel import kernel_imag_batch
from dunkllab.forms import t_g_eta_values
from dunkllab.functions import sample
from dunkllab.measure import EtaFields, volume_max_pairs
from dunkllab.operators import dunkl_apply_values
from dunkllab.root_systems import as_points

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


def _valid(shape: tuple, dim: int) -> bool:
    if dim == 1 and len(shape) <= 1:
        return True
    if len(shape) == 1:
        return shape[0] == dim
    return len(shape) == 2 and shape[1] == dim


class TestAsPoints:
    @PROPERTY
    @given(st.integers(1, 2).flatmap(lambda dim: st.tuples(
        st.just(dim), arrays(np.float64, st.tuples(st.integers(0, 5),
                                                   st.just(dim))))))
    def test_batch_is_returned_byte_for_byte(self, case):
        dim, batch = case
        out = as_points(batch, dim)
        assert out.shape == batch.shape
        assert out.tobytes() == batch.tobytes()

    @PROPERTY
    @given(st.integers(1, 2).flatmap(
        lambda dim: arrays(np.float64, st.just((dim,)))))
    def test_vector_of_dim_numbers_is_one_point(self, point):
        out = as_points(point, point.size)
        assert out.shape == (1, point.size)
        assert out.tobytes() == point.tobytes()

    @PROPERTY
    @given(arrays(np.float64, st.tuples(st.integers(0, 6))))
    def test_rank_one_vector_is_that_many_points(self, vector):
        out = as_points(vector, 1)
        assert out.shape == (vector.size, 1)
        assert out.tobytes() == vector.tobytes()

    def test_rank_one_scalar_is_one_point(self):
        assert as_points(0.5, 1).tolist() == [[0.5]]

    @PROPERTY
    @given(st.integers(1, 2),
           array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4))
    def test_every_other_shape_raises(self, dim, shape):
        if _valid(shape, dim):
            assert as_points(np.zeros(shape), dim).shape[1] == dim
            return
        with pytest.raises(ValueError) as info:
            as_points(np.zeros(shape), dim)
        assert f"got shape {shape}" in str(info.value)
        assert f"R^{dim}" in str(info.value)


def _context(dim: int) -> WeightedContext:
    system = rank1(0.5) if dim == 1 else product_z2([0.5, 0.5])
    return WeightedContext(system, n_half=40)


def _reversed(pts):
    return np.asarray(pts, dtype=float)[::-1]


#: every evaluator routed through ``as_points``, as (ctx, points) -> values
EVALUATORS = {
    "evaluate_q": lambda ctx, p: evaluate_q(ctx, KernelSpec.heat(ctx.dim), p),
    "evaluate_q rescaled": lambda ctx, p: evaluate_q(
        ctx, KernelSpec.heat(ctx.dim, t=9.0), p),
    "heat_kernel": lambda ctx, p: heat_kernel(ctx, p, 1.0),
    "heat_kernel_two_point": lambda ctx, p: heat_kernel_two_point(
        ctx, p, _reversed(p), 1.0),
    "two_point_kernel": lambda ctx, p: two_point_kernel(
        ctx, KernelSpec.heat(ctx.dim), p, _reversed(p)),
    "translate_at_points": lambda ctx, p: translate_at_points(
        ctx, gaussian(ctx.dim), np.full(ctx.dim, 0.4), p),
    "inverse_at_points": lambda ctx, p: inverse_at_points(
        ctx, lambda xi: np.exp(-np.sum(xi**2, axis=1)), p),
    "volume_max_pairs": lambda ctx, p: volume_max_pairs(
        ctx.system, p, _reversed(p), 1.0),
    "orbit_distance_pairwise": lambda ctx, p: orbit_distance_pairwise(
        ctx.group, p, _reversed(p)),
    "kernel_imag_batch": lambda ctx, p: kernel_imag_batch(
        ctx.system, p, _reversed(p)),
    "PolyGauss": lambda ctx, p: gaussian(ctx.dim)(p),
    "radial_bump": lambda ctx, p: radial_bump(ctx.dim, 3.0)(p),
    "dunkl_apply_values": lambda ctx, p: dunkl_apply_values(
        ctx.system, radial_bump(ctx.dim, 3.0), np.eye(ctx.dim)[0], p),
    "t_g_eta_values": lambda ctx, p: t_g_eta_values(
        ctx, 0.8, np.eye(ctx.dim)[0], 1, gaussian(ctx.dim), p),
    "KernelSpec.symbol": lambda ctx, p: KernelSpec.heat(ctx.dim).symbol(p),
}
ROUTED = pytest.mark.parametrize("name", sorted(EVALUATORS))


class TestEvaluatorsFollowTheRule:
    @ROUTED
    def test_rank_one_vector_is_a_batch(self, name):
        ctx = _context(1)
        got = EVALUATORS[name](ctx, [0.0, 1.0, 2.0])
        expect = EVALUATORS[name](ctx, np.array([[0.0], [1.0], [2.0]]))
        assert got.shape == (3,)
        assert got.tobytes() == expect.tobytes()

    @ROUTED
    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_point_gives_one_value(self, name, dim):
        got = EVALUATORS[name](_context(dim), np.linspace(0.3, 0.6, dim))
        assert isinstance(got, np.ndarray) and got.shape == (1,)

    @ROUTED
    def test_rank_two_three_vector_raises(self, name):
        with pytest.raises(ValueError, match=r"R\^2.*got shape \(3,\)"):
            EVALUATORS[name](_context(2), [0.0, 1.0, 2.0])

    @ROUTED
    def test_rank_one_two_column_batch_raises(self, name):
        with pytest.raises(ValueError, match=r"R\^1.*got shape \(3, 2\)"):
            EVALUATORS[name](_context(1), np.zeros((3, 2)))


#: functions of one point (a shift or a ball centre), as (ctx, x) -> value
ONE_POINT = {
    "dunkl_translate": lambda ctx, x: dunkl_translate(
        ctx, gaussian(ctx.dim), x).values,
    "translate_at_points": lambda ctx, x: translate_at_points(
        ctx, gaussian(ctx.dim), x, np.zeros((2, ctx.dim))),
    "ball_volume": lambda ctx, x: ball_volume(ctx.system, x, 1.0),
}


class TestOnePointArguments:
    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    @pytest.mark.parametrize("dim", [1, 2])
    def test_three_vector_raises(self, name, dim):
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            ONE_POINT[name](_context(dim), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    def test_rank_one_scalar_is_the_point(self, name):
        ctx = _context(1)
        got = np.asarray(ONE_POINT[name](ctx, 0.4))
        assert got.tobytes() == np.asarray(ONE_POINT[name](ctx, [0.4])).tobytes()


class TestCallableFunctionTakesBatchesOnly:
    """A CallableFunction knows no dimension, so it cannot read a vector
    by the rule: an (M,) vector used to be one M-dimensional point."""

    @staticmethod
    def _gaussian():
        return CallableFunction(lambda p: np.exp(-np.sum(p**2, axis=1)))

    @pytest.mark.parametrize("shape", [(), (3,), (1, 2, 1)])
    def test_other_shapes_raise_naming_the_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"(M, dim) point batch; got shape {shape}")):
            self._gaussian()(np.zeros(shape))

    def test_rank_one_vector_raises_not_one_point(self):
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            self._gaussian()([0.0, 1.0, 2.0])

    def test_sample_hands_it_a_batch(self):
        f = self._gaussian()
        got = sample(f, np.array([[0.0], [1.0], [2.0]]))
        assert np.array_equal(got, np.exp(-np.array([0.0, 1.0, 4.0])))
        grid = _context(1).grid
        assert sample(f, grid).tobytes() == f(grid.points()).tobytes()


class TestSymbolReadsPointsByTheRule:
    def test_rank_one_vector_is_that_many_frequencies(self):
        got = KernelSpec.heat(1).symbol([1.0, 2.0])
        assert got.tolist() == [1.0, 4.0]


#: the eta fields, which know no dimension: (points, s) -> values
ETA = {
    "eta": lambda p, s: EtaFields(s).eta(p),
    "eta_radial_factor": lambda p, s: EtaFields(s).radial_factor(p),
    "eta_directional": lambda p, s: EtaFields(s).directional(p, [1.0], 1),
}


class TestEtaTakesBatchesOnly:
    """The eta fields know no dimension, so they cannot read a vector by
    the rule: a rank-1 (3,) vector used to be one point of R^3."""

    @pytest.mark.parametrize("name", sorted(ETA))
    @pytest.mark.parametrize("shape", [(), (3,), (1, 2, 1)])
    def test_other_shapes_raise_naming_the_shape(self, name, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"(M, dim) point batch; got shape {shape}")):
            ETA[name](np.zeros(shape), 1.0)

    def test_rank_one_vector_raises_not_one_point(self):
        # it gave e^sqrt(6) = 11.58, eta at one point of R^3
        with pytest.raises(ValueError, match=r"got shape \(3,\)"):
            EtaFields(1.0).eta(np.array([0.0, 1.0, 2.0]))
        got = EtaFields(1.0).eta(np.array([[0.0], [1.0], [2.0]]))
        assert got.round(3).tolist() == [2.718, 4.113, 9.356]
