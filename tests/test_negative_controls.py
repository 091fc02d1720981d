"""Negative controls: a check run unchanged on a mathematically wrong
object must FAIL.  The wrong object is injected with ``monkeypatch``;
no criterion, tolerance or slack is changed."""

import pytest

from dunkllab import forms, harness
from dunkllab.runner import build_context, build_kernel_spec, run_check

#: the system of the rank2-pointwise benchmark workload, which runs garding
#: with its default parameters
RANK2_CONFIG = {"system": {"type": "product_z2", "ks": [0.5, 0.5]},
                "checks": [{"kind": "garding"}]}


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
    ctx = build_context(RANK2_CONFIG)
    report = run_check(ctx, "garding", None,
                       build_kernel_spec(RANK2_CONFIG, ctx.dim))
    assert not report.passed, report.fitted
