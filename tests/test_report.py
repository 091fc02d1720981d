"""Report dataclass semantics and JSON-safe conversion."""

import json
import re

import numpy as np
import pytest

from dunkllab.errors import AccuracyError
from dunkllab.report import (MARGIN_CAP, VerificationReport, grid_metadata,
                             margin_of, to_builtin)


class TestToBuiltin:
    def test_numpy_scalars_and_arrays(self):
        obj = {
            "a": np.float64(1.5),
            "b": np.int32(7),
            "c": np.bool_(True),
            "d": np.array([[1.0, 2.0], [3.0, 4.0]]),
            "e": (np.float32(0.5), [np.int64(2)]),
        }
        out = to_builtin(obj)
        assert out == {"a": 1.5, "b": 7, "c": True,
                       "d": [[1.0, 2.0], [3.0, 4.0]], "e": [0.5, [2]]}
        json.dumps(out)  # must be serializable as-is

    def test_non_string_keys_coerced(self):
        assert to_builtin({1: "x"}) == {"1": "x"}


class TestMargin:
    def test_plain_ratio(self):
        assert margin_of(1e-9, 1e-6) == pytest.approx(1e3)

    def test_zero_defect_capped(self):
        assert margin_of(0.0, 1e-6) == MARGIN_CAP

    def test_tiny_defect_capped(self):
        assert margin_of(1e-300, 1e-6) == MARGIN_CAP

    def test_sign_stripped(self):
        assert margin_of(-1e-7, 1e-6) == pytest.approx(10.0)


class TestFromDefect:
    def test_boundary_defect_passes(self):
        rep = VerificationReport.from_defect("x", {}, 1e-6, 1e-6)
        assert rep.passed
        assert rep.margin == pytest.approx(1.0)

    def test_just_over_fails(self):
        rep = VerificationReport.from_defect("x", {}, 1.0001e-6, 1e-6)
        assert not rep.passed

    def test_negative_defect_uses_magnitude(self):
        rep = VerificationReport.from_defect("x", {}, -5e-7, 1e-6)
        assert rep.passed
        assert rep.max_defect == 5e-7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, expect", [
        ("defect", "x: max_defect is"),
        ("tolerance", "x: tolerance is"),
        ("fitted", "x: fitted.fit.values[1][0] is"),
    ])
    def test_non_finite_number_raises(self, bad, where, expect):
        defect = bad if where == "defect" else 1e-9
        tol = bad if where == "tolerance" else 1e-6
        fitted = {"fit": {"c": 1.0, "values": [[0.5], [np.float64(bad)]]}}
        with pytest.raises(AccuracyError, match=re.escape(expect)):
            VerificationReport.from_defect(
                "x", {}, defect, tol,
                fitted=fitted if where == "fitted" else {"c": 1.0})

    def test_params_and_fitted_converted(self):
        rep = VerificationReport.from_defect(
            "x", {"t": np.float64(1.0)}, 0.0, 1e-6,
            fitted={"c": np.float64(0.25)})
        assert isinstance(rep.params["t"], float)
        assert isinstance(rep.fitted["c"], float)


class TestSerialization:
    def test_json_dict_keys(self):
        rep = VerificationReport.from_defect("x", {}, 1e-9, 1e-6)
        d = rep.to_json_dict()
        assert d["pass"] is True
        assert set(d) == {"check", "params", "pass", "margin", "max_defect",
                          "tolerance", "fitted", "grid", "notes"}

    def test_summary_line_format(self):
        rep = VerificationReport.from_defect("kernel-mass", {}, 2e-9, 1e-6)
        line = rep.summary_line()
        assert line.startswith("[PASS] kernel-mass:")
        assert "defect 2.000e-09" in line
        rep2 = VerificationReport.from_defect("kernel-mass", {}, 2e-3, 1e-6)
        assert rep2.summary_line().startswith("[FAIL]")


class TestGridMetadata:
    def test_fields(self):
        from dunkllab import WeightedContext, rank1
        ctx = WeightedContext(rank1(1.0))
        meta = grid_metadata(ctx)
        assert meta["dim"] == 1
        assert meta["box"] == 12.0
        assert meta["n_half"] == 200
        assert meta["homogeneous_dim"] == pytest.approx(3.0)
        json.dumps(meta)
