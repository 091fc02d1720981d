"""The rank-1 kernel evaluators and their sign-flip product extension."""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dunkllab import dunkl_kernel, product_z2
from dunkllab.dunkl_kernel import (SMALL_ARG_LIMIT, kernel_imag_batch,
                                   kernel_imag_outer, kernel_imag_parts,
                                   kernel_real_scaled)


def real_axis(v, k):
    """E_k(v) for real v, from the scaled evaluator."""
    return kernel_real_scaled(v, k) * np.exp(np.abs(v))


class TestClassicalLimit:
    """At k = 0 the kernel is the exponential."""

    def test_imag_parts_are_cos_sin(self):
        u = np.linspace(-8, 8, 41)
        re, im = kernel_imag_parts(u, 0.0)
        assert np.allclose(re, np.cos(u), atol=1e-13)
        assert np.allclose(im, np.sin(u), atol=1e-13)

    def test_real_axis_is_exp(self):
        v = np.linspace(-5, 5, 21)
        assert np.allclose(real_axis(v, 0.0), np.exp(v), rtol=1e-13)


class TestKOneClosedForm:
    """At k = 1 elementary closed forms exist:
    E_1(iu) = sin(u)/u + (i/u)(sin(u)/u - cos(u)),
    E_1(v)  = sinh(v)/v + (1/v)(cosh(v) - sinh(v)/v)."""

    def test_imaginary_axis(self):
        u = np.array([0.7, 1.0, 2.5, 6.0])
        re, im = kernel_imag_parts(u, 1.0)
        assert np.allclose(re, np.sin(u) / u, atol=1e-13)
        assert np.allclose(im, (np.sin(u) / u - np.cos(u)) / u, atol=1e-13)

    def test_real_axis(self):
        v = np.array([0.8, 1.0, 3.0])
        expect = np.sinh(v) / v + (np.cosh(v) - np.sinh(v) / v) / v
        assert np.allclose(real_axis(v, 1.0), expect, rtol=1e-13)

    def test_value_at_one_is_cosh_one(self):
        # sinh(1)/1 + cosh(1) - sinh(1) collapses to cosh(1)
        val = real_axis(1.0, 1.0)
        assert val == pytest.approx(np.cosh(1.0), abs=1e-14)
        assert val == pytest.approx(1.5430806348152437, abs=1e-13)


class TestEvaluatorConsistency:
    def test_scaled_variant_is_overflow_free(self):
        vals = kernel_real_scaled(np.array([500.0, 700.0, 1000.0]), 0.5)
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 0)


class TestKernelBounds:
    @pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 2.0])
    def test_imaginary_axis_modulus_at_most_one(self, k):
        u = np.linspace(-40, 40, 400)
        re, im = kernel_imag_parts(u, k)
        assert np.max(np.hypot(re, im)) <= 1.0 + 1e-12

    def test_value_at_zero_is_one(self):
        assert real_axis(0.0, 0.7) == 1.0
        re, im = kernel_imag_parts(np.array([0.0]), 0.7)
        assert re[0] == 1.0 and im[0] == 0.0

    def test_conjugate_symmetry(self):
        u = np.linspace(0.1, 5, 17)
        re_p, im_p = kernel_imag_parts(u, 0.6)
        re_m, im_m = kernel_imag_parts(-u, 0.6)
        assert np.allclose(re_p, re_m)
        assert np.allclose(im_p, -im_m)


class TestProductExtension:
    def test_batch_matches_scalar(self):
        # E(i xi, x) is the product over the axes of E_{k_d}(i xi_d x_d)
        sys2 = product_z2([0.5, 1.0])
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(6, 2))
        xis = rng.normal(size=(6, 2))
        batch = kernel_imag_batch(sys2, xis, xs)
        for j in range(6):
            a_re, a_im = kernel_imag_parts(xis[j, 0] * xs[j, 0], 0.5)
            b_re, b_im = kernel_imag_parts(xis[j, 1] * xs[j, 1], 1.0)
            expect = complex(a_re + 1j * a_im) * complex(b_re + 1j * b_im)
            assert batch[j] == pytest.approx(expect, abs=1e-13)


class TestOuterEvaluation:
    @pytest.mark.parametrize("k", [0.0, 0.25, 0.5, 1.0])
    def test_bytes_equal_direct_call(self, k):
        # repeats, both signed zeros, products on both sides of (and at)
        # SMALL_ARG_LIMIT
        x = np.array([0.3, -0.3, 0.0, -0.0, 1.7, 0.3, -2.0, 0.5, -0.1,
                      5.0, 0.25, -1.7])
        nodes = np.array([-3.0, -1.0, -0.2, -0.0, 0.0, 0.2, 1.0, 3.0,
                          SMALL_ARG_LIMIT, 2.0, -2.0, 0.2])
        re, im = kernel_imag_outer(x, nodes, k)
        re0, im0 = kernel_imag_parts(np.outer(x, nodes), k)
        assert re.shape == im.shape == (x.size, nodes.size)
        assert re.tobytes() == re0.tobytes()
        assert im.tobytes() == im0.tobytes()
        assert np.array_equal(np.signbit(im), np.signbit(im0))

    def test_evaluates_each_distinct_modulus_once(self, monkeypatch):
        from dunkllab import dunkl_kernel
        sizes = []
        real = dunkl_kernel.kernel_imag_parts

        def counting(u, k):
            sizes.append(np.size(u))
            return real(u, k)

        monkeypatch.setattr(dunkl_kernel, "kernel_imag_parts", counting)
        nodes = np.concatenate([-np.arange(1.0, 6.0)[::-1],
                                np.arange(1.0, 6.0)])
        kernel_imag_outer(np.array([0.5, -0.5, 0.5, 2.0]), nodes, 0.5)
        assert sizes == [2 * 5]


#: worst |E_k(iu)| - 1 measured over k in [0, 3] and |u| <= 60 was 2.44e-14
#: (k = 0, u = 14.10); the bound is 1.5 times that
MODULUS_EXCESS = 3.7e-14
KERNEL_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)
K = st.floats(0.0, 3.0)
US = st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40)


class TestImagAxisProperties:
    @KERNEL_PROPERTY
    @given(K, US)
    def test_re_even_and_im_odd_exactly(self, k, us):
        u = np.array(us)
        re, im = kernel_imag_parts(u, k)
        re_neg, im_neg = kernel_imag_parts(-u, k)
        assert np.array_equal(re_neg, re)
        assert np.array_equal(im_neg, -im)

    @KERNEL_PROPERTY
    @given(K, US)
    def test_modulus_at_most_one(self, k, us):
        re, im = kernel_imag_parts(np.array(us), k)
        assert np.max(np.hypot(re, im)) <= 1.0 + MODULUS_EXCESS


def _serial_imag(u, k):
    re, im = np.empty_like(u), np.empty_like(u)
    dunkl_kernel._imag_parts_into(u, np.abs(u), re, im, k)
    return re, im


def _serial_real(v, k):
    out = np.empty_like(v)
    dunkl_kernel._real_scaled_into(v, np.abs(v), out, k)
    return out


def _split_arguments(n: int) -> np.ndarray:
    """n arguments with signed zeros, values on both sides of
    SMALL_ARG_LIMIT and large ones, in a shuffled order."""
    rng = np.random.default_rng(n)
    u = np.concatenate([
        [0.0, -0.0, SMALL_ARG_LIMIT, -SMALL_ARG_LIMIT,
         np.nextafter(SMALL_ARG_LIMIT, 0.0)],
        rng.uniform(-SMALL_ARG_LIMIT, SMALL_ARG_LIMIT, n // 4),
        rng.uniform(-60.0, 60.0, n - 5 - n // 4)])
    return rng.permutation(u)


class TestSplitAcrossCores:
    """Batches above ``SPLIT_MIN_VALUES`` are cut into one piece per core;
    the bytes are those of the serial evaluator on the whole batch."""

    @pytest.fixture(params=[2, 3])
    def cores(self, request, monkeypatch):
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: request.param)
        return request.param

    @pytest.mark.parametrize("n", [7, dunkl_kernel.SPLIT_MIN_VALUES - 1,
                                   dunkl_kernel.SPLIT_MIN_VALUES,
                                   3 * dunkl_kernel.SPLIT_MIN_VALUES + 1])
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.3])
    def test_bytes_equal_the_serial_evaluator(self, cores, n, k):
        u = _split_arguments(n)
        for got, expect in zip(kernel_imag_parts(u, k), _serial_imag(u, k)):
            assert got.tobytes() == expect.tobytes()
        assert kernel_real_scaled(u, k).tobytes() == _serial_real(u, k).tobytes()

    def test_signed_zeros_keep_their_sign(self, cores):
        u = np.zeros(dunkl_kernel.SPLIT_MIN_VALUES)
        u[1::2] = -0.0
        _, im = kernel_imag_parts(u, 0.5)
        assert np.array_equal(np.signbit(im), np.signbit(_serial_imag(u, 0.5)[1]))

    def test_grid_shaped_batch_keeps_shape_and_bytes(self, cores):
        u = np.outer(_split_arguments(150)[:150], np.linspace(-2.0, 2.0, 90))
        re, im = kernel_imag_parts(u, 0.5)
        expect = _serial_imag(u, 0.5)
        assert re.shape == u.shape and re.flags.c_contiguous
        assert re.tobytes() == expect[0].tobytes()
        assert im.tobytes() == expect[1].tobytes()

    def test_zero_dimensional_argument(self, cores):
        for x in (0.0, -0.0, 0.3, -7.5):
            re, im = kernel_imag_parts(np.array(x), 0.5)
            assert re.shape == im.shape == ()
            expect = _serial_imag(np.array(x), 0.5)
            assert (re.tobytes(), im.tobytes()) == (expect[0].tobytes(),
                                                    expect[1].tobytes())
            assert (kernel_real_scaled(x, 0.5).tobytes()
                    == _serial_real(np.array(x), 0.5).tobytes())

    def test_strided_batch_is_evaluated_whole(self, cores):
        u = _split_arguments(3 * dunkl_kernel.SPLIT_MIN_VALUES)[::3]
        assert not u.flags.c_contiguous
        re, im = kernel_imag_parts(u, 0.5)
        expect = _serial_imag(np.ascontiguousarray(u), 0.5)
        assert re.tobytes() == expect[0].tobytes()
        assert im.tobytes() == expect[1].tobytes()

    def test_pieces_run_on_the_pool_and_cover_the_batch(self, cores):
        seen = []

        def task(lo, hi):
            seen.append((lo, hi, threading.current_thread().name))

        dunkl_kernel.on_cores(10, task, 10)
        assert sorted(lo for lo, _, _ in seen) == [10 * i // cores
                                                   for i in range(cores)]
        assert sum(hi - lo for lo, hi, _ in seen) == 10
        first, = (name for lo, _, name in seen if lo == 0)
        assert first == threading.current_thread().name
        assert all(name.startswith("dunkllab-split")
                   for lo, _, name in seen if lo)

    def test_below_the_split_size_one_piece_in_the_caller(self, cores):
        seen = []
        dunkl_kernel.on_cores(9, lambda lo, hi: seen.append(
            (lo, hi, threading.current_thread().name)), 10)
        assert seen == [(0, 9, threading.current_thread().name)]

    def test_one_core_is_serial(self, monkeypatch):
        monkeypatch.setattr(dunkl_kernel, "_cores", lambda: 1)
        seen = []
        dunkl_kernel.on_cores(10 ** 6, lambda lo, hi: seen.append(
            (lo, hi, threading.current_thread().name)), 1)
        assert seen == [(0, 10 ** 6, threading.current_thread().name)]

    def test_a_pool_thread_never_submits(self, cores):
        inner = []

        def task(lo, hi):
            dunkl_kernel.on_cores(100, lambda a, b: inner.append(
                (lo, a, b, threading.current_thread().name)), 1)

        dunkl_kernel.on_cores(2 * cores, task, 1)
        # the outer pieces after the first ran in pool threads, and each
        # ran its nested call whole, in itself
        from_pool = [entry for entry in inner if entry[0]]
        assert len(from_pool) == cores - 1
        assert all(a == 0 and b == 100 and name.startswith("dunkllab-split")
                   for _, a, b, name in from_pool)

    def test_a_failing_piece_raises_after_every_piece_ends(self, cores):
        ended = []

        def task(lo, hi):
            if lo:
                raise ValueError("piece failed")
            ended.append(lo)

        with pytest.raises(ValueError, match="piece failed"):
            dunkl_kernel.on_cores(4, task, 1)
        assert ended == [0]

    def test_one_pool_for_many_concurrent_first_callers(self, cores,
                                                         monkeypatch):
        # more callers than cores race to make the pool: one is made, and
        # every caller gets the serial bytes
        made = []
        real = dunkl_kernel.ThreadPoolExecutor

        def counting(**kwargs):
            made.append(real(**kwargs))
            return made[-1]

        monkeypatch.setattr(dunkl_kernel, "ThreadPoolExecutor", counting)
        monkeypatch.setattr(dunkl_kernel, "_POOL", None)
        u = _split_arguments(2 * dunkl_kernel.SPLIT_MIN_VALUES)
        expect = [part.tobytes() for part in _serial_imag(u, 0.5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                got = list(callers.map(
                    lambda _: [part.tobytes()
                               for part in kernel_imag_parts(u, 0.5)],
                    range(16), timeout=60))
        finally:
            sys.setswitchinterval(interval)
            for pool in made:
                pool.shutdown()
        assert len(made) == 1
        assert got == [expect] * 16

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_makes_its_own_pool(self, cores):
        # the parent's pool threads do not exist in a forked child: a task
        # submitted to the parent's pool object there would never run
        u = _split_arguments(2 * dunkl_kernel.SPLIT_MIN_VALUES)
        expect = [part.tobytes() for part in _serial_imag(u, 0.5)]
        kernel_imag_parts(u, 0.5)
        assert dunkl_kernel._POOL is not None
        pid = os.fork()
        if pid == 0:
            got = [part.tobytes() for part in kernel_imag_parts(u, 0.5)]
            os._exit(0 if got == expect else 1)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung on the parent's pool")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0
