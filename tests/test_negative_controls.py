"""Negative controls: a check run unchanged on a mathematically wrong
object must FAIL.  The wrong object is injected with ``monkeypatch``;
no criterion, tolerance or slack is changed."""

from dataclasses import replace

import pytest

from dunkllab import forms, harness, kernels
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

    monkeypatch.setattr(harness, "_coercivity_terms", reversed_terms)
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

    def shifted_convolve(ctx, f, g, real_part=False):
        late = kernels.q_on_grid(ctx, replace(spec, t=spec.t / 2.0 + delta))
        return true_convolve(ctx, f, late, real_part=real_part)

    monkeypatch.setattr(kernels, "dunkl_convolve", shifted_convolve)
    report = _run(RANK1_CONFIG, "kernel-semigroup")
    assert not report.passed, report.max_defect
