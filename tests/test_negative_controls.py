"""Negative controls: a check run unchanged on a mathematically wrong
object must FAIL.  The wrong object is injected with ``monkeypatch``;
no criterion, tolerance or slack is changed.  Each control runs through
``run_check``, the one entry point, and first asserts that the true
object passes.  Every registered kind has a control here, or a strict
xfail naming the ROADMAP item that will add one.  The sharpness probes
drop one ingredient of a bound the same way: a check that still passes
without it has not tested it."""

from dataclasses import replace

import numpy as np
import pytest

from dunkllab import WeightedContext, forms, harness, kernels
from dunkllab.checks import CHECKS
from dunkllab.runner import build_context, build_kernel_spec, run_check

#: the system of the rank2-pointwise benchmark workload, which runs garding
#: with its default parameters
RANK2_CONFIG = {"system": {"type": "product_z2", "ks": [0.5, 0.5]},
                "checks": [{"kind": "garding"}]}
#: the system of the rank1-sweep benchmark workload
RANK1_CONFIG = {"system": {"type": "rank1", "k": 0.5}}


def _run(config: dict, kind: str, ctx=None):
    ctx = build_context(config) if ctx is None else ctx
    return run_check(ctx, kind, None, build_kernel_spec(config, ctx.dim))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 4: the sign-reversed form still passes garding, "
           "with alpha 3.71 and C_alpha at the cap 100 (the true form: "
           "alpha 5.29, C_alpha 100)")
def test_garding_fails_for_the_sign_reversed_form(monkeypatch):
    true_terms = forms._coercivity_terms

    def reversed_terms(*args):
        A, H, V = true_terms(*args)
        return -A, H, V

    monkeypatch.setattr(forms, "_coercivity_terms", reversed_terms)
    report = _run(RANK2_CONFIG, "garding")
    assert not report.passed, report.fitted


def test_kernel_mass_fails_for_a_misnormalised_kernel(monkeypatch):
    # h_t normalised by c_k (1 + 1e-5): every mass is off by about 1e-5,
    # against the 1e-6 tolerance
    assert _run(RANK1_CONFIG, "kernel-mass").passed
    ctx = build_context(RANK1_CONFIG)
    monkeypatch.setitem(vars(ctx), "c_k", ctx.c_k * (1.0 + 1e-5))
    report = _run(RANK1_CONFIG, "kernel-mass", ctx)
    assert not report.passed, report.fitted


def test_kernel_semigroup_fails_for_a_shifted_second_factor(monkeypatch):
    # q_{t/2} * q_{t/2 + delta} against q_t, in sup norm against 1e-7
    assert _run(RANK1_CONFIG, "kernel-semigroup").passed
    spec = build_kernel_spec(RANK1_CONFIG, 1)
    delta = 1e-4
    true_convolve = kernels.dunkl_convolve

    def shifted_convolve(ctx, f, g):
        late = kernels.q_on_grid(ctx, replace(spec, t=spec.t / 2.0 + delta))
        return true_convolve(ctx, f, late)

    monkeypatch.setattr(kernels, "dunkl_convolve", shifted_convolve)
    report = _run(RANK1_CONFIG, "kernel-semigroup")
    assert not report.passed, report.max_defect


def test_kernel_symmetry_fails_for_an_asymmetric_kernel(monkeypatch):
    # q(x, y) (1 + 1e-6 x_1): the swapped pairs differ by about 1e-6 of
    # the kernel's scale, against the 1e-8 tolerance
    assert _run(RANK1_CONFIG, "kernel-symmetry").passed
    true_kernel = kernels.two_point_kernel

    def skewed(ctx, spec, x, y):
        return true_kernel(ctx, spec, x, y) * (1.0 + 1e-6 * x[:, 0])

    monkeypatch.setattr(kernels, "two_point_kernel", skewed)
    report = _run(RANK1_CONFIG, "kernel-symmetry")
    assert not report.passed, report.max_defect


def test_kernel_scaling_fails_for_a_wrong_homogeneous_dimension(
        monkeypatch):
    # N_h + 0.01 in the amplitude t^{-N_h/(2l)}, against 1e-7
    assert _run(RANK1_CONFIG, "kernel-scaling").passed
    monkeypatch.setattr(WeightedContext, "homogeneous_dim", property(
        lambda ctx: ctx.system.homogeneous_dim + 0.01))
    report = _run(RANK1_CONFIG, "kernel-scaling")
    assert not report.passed, report.max_defect


def test_kernel_laplacian_fails_for_the_formula_without_its_k_term(
        monkeypatch):
    # sum_d d_d^2 f in place of the Dunkl Laplacian's formula, against the
    # composition sum_j T_j^2
    assert _run(RANK1_CONFIG, "kernel-laplacian").passed

    def without_k_term(system, f):
        out = f.deriv(0).deriv(0)
        for d in range(1, system.dim):
            out = out + f.deriv(d).deriv(d)
        return out

    monkeypatch.setattr(kernels, "dunkl_laplacian", without_k_term)
    report = _run(RANK1_CONFIG, "kernel-laplacian")
    assert not report.passed, report.max_defect


def test_kernel_positivity_fails_for_an_oscillating_kernel(monkeypatch):
    # h_t(x, y) cos(x_1 - y_1) is negative where |x_1 - y_1| > pi/2
    assert _run(RANK1_CONFIG, "kernel-positivity").passed
    true_kernel = kernels.heat_kernel_two_point

    def oscillating(ctx, x, y, t):
        return true_kernel(ctx, x, y, t) * np.cos(x[:, 0] - y[:, 0])

    monkeypatch.setattr(kernels, "heat_kernel_two_point", oscillating)
    report = _run(RANK1_CONFIG, "kernel-positivity")
    assert not report.passed, report.fitted


def test_e_bound_fails_for_a_kernel_above_one(monkeypatch):
    # |E| (1 + 1e-9) reaches 1 + 1e-9 at the origin, against 1e-10
    assert _run(RANK1_CONFIG, "e-bound").passed
    true_parts = harness.kernel_imag_outer

    def scaled(xi, x, k):
        re, im = true_parts(xi, x, k)
        return re * (1.0 + 1e-9), im * (1.0 + 1e-9)

    monkeypatch.setattr(harness, "kernel_imag_outer", scaled)
    report = _run(RANK1_CONFIG, "e-bound")
    assert not report.passed, report.fitted


def test_thm1_decay_fails_for_a_wrong_decay_exponent(monkeypatch):
    # at l = 1 the prescribed exponent is 2; exp(-|x|^{3/2} / 4) fits
    # p = 1.5, 25% off against the 5% tolerance
    assert _run(RANK1_CONFIG, "thm1-decay").passed

    def slow_tail(ctx, spec, x):
        return np.exp(-0.25 * np.linalg.norm(x, axis=1) ** 1.5)

    monkeypatch.setattr(harness, "evaluate_q", slow_tail)
    report = _run(RANK1_CONFIG, "thm1-decay")
    assert not report.passed, report.fitted["exponent_fitted"]


def test_kernel_decomposition_fails_for_a_late_heat_factor(monkeypatch):
    # both heat factors at time eps0/2 + 1e-4, against the 1e-6 tolerance
    assert _run(RANK1_CONFIG, "kernel-decomposition").passed
    true_heat = kernels.heat_kernel

    def late(ctx, x, t):
        return true_heat(ctx, x, t + 1e-4)

    monkeypatch.setattr(kernels, "heat_kernel", late)
    report = _run(RANK1_CONFIG, "kernel-decomposition")
    assert not report.passed, report.max_defect


def test_translation_lipschitz_fails_for_a_square_root_shift(monkeypatch):
    # tau_x moved by sqrt(|x|): sup |tau q - q| grows like |x|^{1/2} for
    # small shifts, which no constant C |x| bounds across [0.05, 2]
    assert _run(RANK1_CONFIG, "translation-lipschitz").passed
    true_translate = harness.dunkl_translate

    def square_root_shift(ctx, f, x):
        x = np.asarray(x, dtype=float)
        return true_translate(ctx, f, np.sign(x) * np.sqrt(np.abs(x)))

    monkeypatch.setattr(harness, "dunkl_translate", square_root_shift)
    report = _run(RANK1_CONFIG, "translation-lipschitz")
    assert not report.passed, report.fitted


#: the kinds whose bound is stated in the orbit distance, run with their
#: default parameters on the systems of rank1-sweep and rank2-pointwise
ORBIT_PROBE_KINDS = ["thm2-two-point", "heat-gaussian-bound"]


def _euclidean(group, xs, ys):
    return np.linalg.norm(xs - ys, axis=1)


@pytest.mark.parametrize("kind", ORBIT_PROBE_KINDS)
def test_probe_euclidean_distance_fails_in_rank_one(kind, monkeypatch):
    # sharpness probe (ROADMAP item 21): the bound is stated in the orbit
    # distance d(x, y) = min_sigma |x - sigma y|; with |x - y| in its place
    # the held-out ratio reads 1.13 (thm2-two-point) and 2.51
    # (heat-gaussian-bound), above the pass line 1
    assert _run(RANK1_CONFIG, kind).passed
    monkeypatch.setattr(harness, "orbit_distance_pairwise", _euclidean)
    report = _run(RANK1_CONFIG, kind)
    assert not report.passed, report.max_defect


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 3 and 21: 3 of the 300 rank-2 pairs have "
           "d(x, y) < 0.5 with |x - y| > 2, so |x - y| in place of the "
           "orbit distance still passes, with held-out ratios 0.958 "
           "(thm2-two-point) and 0.908 (heat-gaussian-bound)")
@pytest.mark.parametrize("kind", ORBIT_PROBE_KINDS)
def test_probe_euclidean_distance_fails_in_rank_two(kind, monkeypatch):
    assert _run(RANK2_CONFIG, kind).passed
    monkeypatch.setattr(harness, "orbit_distance_pairwise", _euclidean)
    report = _run(RANK2_CONFIG, kind)
    assert not report.passed, report.max_defect


#: the negative control of each registered kind
CONTROLS = {
    "garding": test_garding_fails_for_the_sign_reversed_form,
    "kernel-mass": test_kernel_mass_fails_for_a_misnormalised_kernel,
    "kernel-semigroup":
        test_kernel_semigroup_fails_for_a_shifted_second_factor,
    "kernel-symmetry": test_kernel_symmetry_fails_for_an_asymmetric_kernel,
    "kernel-scaling":
        test_kernel_scaling_fails_for_a_wrong_homogeneous_dimension,
    "kernel-laplacian":
        test_kernel_laplacian_fails_for_the_formula_without_its_k_term,
    "kernel-positivity":
        test_kernel_positivity_fails_for_an_oscillating_kernel,
    "e-bound": test_e_bound_fails_for_a_kernel_above_one,
    "thm1-decay": test_thm1_decay_fails_for_a_wrong_decay_exponent,
    "kernel-decomposition":
        test_kernel_decomposition_fails_for_a_late_heat_factor,
    "translation-lipschitz":
        test_translation_lipschitz_fails_for_a_square_root_shift,
}

_HELD_OUT_COPIES = (
    "ROADMAP item 3: the held-out half repeats the calibration half, so no "
    "wrong kernel can break the bound only where calibration never looks")
#: kinds still without a control, with the ROADMAP item that adds one
PENDING = {
    "thm2-two-point": _HELD_OUT_COPIES,
    "heat-gaussian-bound": _HELD_OUT_COPIES,
    "e-lipschitz": _HELD_OUT_COPIES,
    "compact-support-l1": "ROADMAP item 3: each held-out pair carries the "
                          "L1 value of its calibration mirror",
    "exp-weighted-l1": "ROADMAP item 4: a kernel with exp(-|x|) tails must "
                       "FAIL or raise DomainTooSmallError; which is right "
                       "is not decided",
}


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(strict=True,
                                               reason=PENDING[kind]))
    if kind in PENDING else kind for kind in sorted(CHECKS)])
def test_every_registered_kind_has_a_control(kind):
    assert kind in CONTROLS


def test_controls_name_registered_kinds():
    assert set(CONTROLS) | set(PENDING) <= set(CHECKS)
