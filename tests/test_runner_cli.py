"""Config validation, the experiment runner, report files, and the CLI."""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from dunkllab import __version__, cli, forms, kernels
from dunkllab.checks import CHECKS, Derived, Param
from dunkllab.errors import AccuracyError, ConfigError
from dunkllab.kernels import T_DIRECT_MAX, T_DIRECT_MIN
from dunkllab.report import MARGIN_CAP, VerificationReport
from dunkllab.runner import (CONFIG_HASH_LEN, OUTPUT_DIR_ENV, build_context,
                             build_kernel_spec, build_system, config_schema,
                             list_checks, report_filenames, run, run_check,
                             validate_config, write_decay_csv,
                             write_summary_csv)

ALL_KINDS = {
    "thm1-decay", "thm2-two-point", "heat-gaussian-bound", "garding",
    "kernel-mass", "kernel-symmetry", "kernel-positivity",
    "kernel-semigroup", "kernel-scaling", "kernel-decomposition",
    "kernel-laplacian", "e-bound", "e-lipschitz", "translation-lipschitz",
    "compact-support-l1", "exp-weighted-l1",
}

# Small grids keep these checks sub-second while staying well resolved for
# the k = 1/2 rank-one weight.
FAST_CONFIG = {
    "system": {"type": "rank1", "k": 0.5},
    "grid": {"box": 12.0, "n_half": 120, "freq_box": 13.0, "freq_n_half": 60},
    "checks": [{"kind": "e-bound", "params": {"n": 20}},
               {"kind": "kernel-mass"},
               {"kind": "thm1-decay"}],
    "workers": 1,
}


#: (kind, params, message) of configs whose values underflow to 0: q_t's
#: spectrum exp(-t sym) at every node of a frequency box of 1e6, where each
#: identity of q_t used to hold as 0 = 0; bumps too narrow to hold a grid
#: node; a frequency box of 1e-300, under which every calibration L1
#: value of compact-support-l1 is 0 (its report used to hold NaN); and
#: h_{eps0/2} at eps0 = 1e-12, which underflows at every node, so that
#: exp-weighted-l1's integrals were 0 on both grids and PASSed; small grids
#: keep each sub-second
SYMBOL_UNDERFLOW = "symbol exponential is at most 0 at every node"
UNDERFLOW_CASES = [
    ("translation-lipschitz", {"freq_box": 1e6, "freq_n_half": 40},
     SYMBOL_UNDERFLOW),
    ("compact-support-l1",
     {"radii": [1e-300, 1.0], "n_half": 40, "freq_n_half": 60},
     "bump of radius 1e-300 has L1 norm 0"),
    ("compact-support-l1",
     {"radii": [1e-12, 1.0], "n_half": 40, "freq_n_half": 60},
     "bump of radius 1e-12 has L1 norm 0"),
    ("kernel-semigroup", {"freq_box": 1e6, "freq_n_half": 40},
     SYMBOL_UNDERFLOW),
    ("kernel-decomposition", {"freq_box": 1e6, "freq_n_half": 40},
     SYMBOL_UNDERFLOW),
    ("compact-support-l1",
     {"freq_box": 1e-300, "n_half": 40, "freq_n_half": 40},
     "calibrated constant C is 0: every calibration value underflows to 0"),
    ("exp-weighted-l1", {"eps0": 1e-12, "ell": 1, "freq_box": 13.0},
     "weighted integral is 0 at eps0 1e-12 on the 12 box with n_half 200"),
]
#: (kind, params, message) of configs whose reports used to hold NaN or
#: Infinity with a FAIL verdict (exit 2): ``VerificationReport.from_defect``
#: rejects the first non-finite number; a NaN heat kernel is refused before,
#: by ``heat_kernel_two_point``, naming its time
NON_FINITE_CASES = [
    ("kernel-mass", {"t": 1e-300}, "h_t(x, y) is NaN at t = 1e-300:"),
    ("exp-weighted-l1", {"c_weight": 1e6, "ell": 1},
     "exp-weighted-l1: max_defect is nan"),
    ("thm1-decay", {"freq_n_half": 8}, "thm1-decay: fitted.C_fitted is inf"),
]
#: the same for a scale that overflows: the bound's (r1 (r1 + r2))^{N_h/2},
#: which also bounds the bump's radius^2, was an OverflowError traceback
OVERFLOW_CASES = [
    ("compact-support-l1", {"radii": [1.0, 1e300]},
     "scale (r1 (r1 + r2))^(N_h/2) overflows at radii r1 = 1e+300"),
]

#: (kind, params, error type, message) of configs that ended in a traceback
#: inside a copy of one of the kernel rules: the spectrum's empty boundary
#: shell, a spec or time built inside a check, the heat amplitude
RULE_CASES = [
    ("thm1-decay", {"freq_box": 5e-324}, "DomainTooSmallError",
     "no node of the frequency grid lies on its boundary shell"),
    ("kernel-decomposition", {"eps0": 5e-324}, "SymbolError",
     "time t must be positive"),
    ("exp-weighted-l1", {"eps0": 5e-324}, "SymbolError",
     "time t must be positive"),
    ("exp-weighted-l1", {"directions": [[5e-324]]}, "SymbolError",
     "directions must be nonzero"),
    ("kernel-mass", {"t": 5e-324}, "AccuracyError",
     "heat kernel's amplitude (2t)^(-N_h/2) overflows at t = 4.94066e-324"),
]


def write_config(tmp_path, config, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def minimal_config(**overrides):
    config = {"system": {"type": "rank1"}, "checks": [{"kind": "e-bound"}]}
    config.update(overrides)
    return config


class TestConfigValidation:
    def test_minimal_config_passes(self):
        validate_config(minimal_config())

    def test_unknown_top_level_key_rejected(self):
        config = minimal_config(bogus=1)
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "(top level)" in str(exc.value)
        assert "bogus" in str(exc.value)

    def test_system_type_restricted_to_product_families(self):
        config = minimal_config(system={"type": "dihedral"})
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "system.type" in str(exc.value)

    def test_product_system_requires_multiplicity_vector(self):
        config = minimal_config(system={"type": "product_z2"})
        with pytest.raises(ConfigError, match="requires"):
            validate_config(config)

    def test_rank_one_rejects_multiplicity_vector(self):
        config = minimal_config(system={"type": "rank1", "ks": [1.0]})
        with pytest.raises(ConfigError, match="does not accept"):
            validate_config(config)

    def test_negative_multiplicity_rejected(self):
        config = minimal_config(system={"type": "rank1", "k": -0.5})
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "system.k" in str(exc.value)

    def test_unknown_check_kind_rejected(self):
        config = minimal_config(checks=[{"kind": "no-such-check"}])
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "checks[0].kind" in str(exc.value)

    def test_unknown_check_param_lists_accepted_ones(self):
        config = minimal_config(
            checks=[{"kind": "kernel-mass", "params": {"bogus": 1}}])
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        message = str(exc.value)
        assert "checks[0].params" in message
        assert "'kernel-mass'" in message
        assert "['bogus']" in message
        assert "accepted: ['points', 't']" in message

    @pytest.mark.parametrize("section, where", [
        ("kernel", "kernel.directions"),
        ("spec", "checks[0].params.spec.directions")])
    def test_overflowing_direction_is_a_config_error(self, tmp_path, capsys,
                                                     section, where):
        # |zeta|^2 overflows: the symbol box is empty, which used to end in
        # a zero-size-array traceback in thm1-decay and translation-lipschitz
        kernel = {"directions": [[1e300]]}
        config = (minimal_config(kernel=kernel) if section == "kernel" else
                  minimal_config(checks=[{"kind": "translation-lipschitz",
                                          "params": {"spec": kernel}}]))
        with pytest.raises(ConfigError, match=re.escape(
                f"config error at {where}: the symbol's frequency box is 0")):
            validate_config(config)
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert f"config error at {where}" in captured.out

    def test_long_but_finite_direction_is_accepted(self):
        validate_config(minimal_config(kernel={"directions": [[1e100]]}))

    @pytest.mark.parametrize("spec, message", [
        ({"directions": [[5e-324]]}, "directions must be nonzero"),
        ({"t": 5e-324}, "the symbol's frequency box is nan"),
        ({"eps": 1.0}, "symbol positivity violated")])
    def test_rejected_spec_is_a_config_error_at_its_path(self, spec,
                                                          message):
        # these used to raise from inside the check: a traceback
        config = minimal_config(checks=[{"kind": "kernel-symmetry",
                                         "params": {"spec": spec}}])
        with pytest.raises(ConfigError, match=re.escape(
                f"config error at checks[0].params.spec: {message}")):
            validate_config(config)

    def test_kernel_directions_need_the_system_dimension(self):
        config = minimal_config(kernel={"directions": [[1.0, 0.0]]})
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "config error at kernel.directions[0]:" in str(exc.value)
        assert "has 2 components; the system has dimension 1" in \
            str(exc.value)

    def test_empty_check_list_rejected(self):
        config = minimal_config(checks=[])
        with pytest.raises(ConfigError) as exc:
            validate_config(config)
        assert "checks" in str(exc.value)

    def test_config_schema_is_not_rechecked_per_call(self, monkeypatch):
        # checking the schema against the Draft 2020-12 metaschema was
        # nearly all of each call's time (8.7 of 8.9 ms on a two-check
        # config); the schema is the package's own
        checked = []
        monkeypatch.setattr(jsonschema.Draft202012Validator, "check_schema",
                            classmethod(lambda cls, schema:
                                        checked.append(schema)))
        validate_config(minimal_config())
        with pytest.raises(ConfigError, match="checks"):
            validate_config(minimal_config(checks=[]))
        assert checked == []


#: every criterion that was once a config value, with its old default
RETIRED_CRITERIA = [
    ("kernel-mass", "tol", 1e-6), ("kernel-symmetry", "tol", 1e-8),
    ("kernel-semigroup", "tol", 1e-7), ("kernel-scaling", "tol", 1e-7),
    ("kernel-decomposition", "tol", 1e-6), ("kernel-laplacian", "tol", 1e-8),
    ("e-bound", "tol", 1e-10), ("thm1-decay", "p_rtol", 0.05),
    ("thm1-decay", "r2_min", 0.995), ("thm1-decay", "check_stability", False),
    ("exp-weighted-l1", "rel_tol", 0.02),
    ("e-lipschitz", "stability_tol", 0.05),
    ("translation-lipschitz", "stability_tol", 0.05),
    ("garding", "garding_c_cap", 100.0)]


class TestCriteriaAreConstants:
    @pytest.mark.parametrize("kind, key, value", RETIRED_CRITERIA)
    def test_retired_criterion_param_exits_one_with_path(
            self, tmp_path, out_dir, capsys, kind, key, value):
        config = dict(FAST_CONFIG, checks=[{"kind": kind,
                                            "params": {key: value}}])
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 1
        captured = capsys.readouterr()
        assert f"config error at checks[0].params.{key}: {kind!r} does " \
               f"not accept [{key!r}]" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not out_dir.exists()

    def test_tolerance_overrides_exits_one_with_path(self, tmp_path, out_dir,
                                                     capsys):
        config = dict(FAST_CONFIG, checks=[{"kind": "kernel-mass"}],
                      tolerance_overrides={"kernel-mass": 1e-5})
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 1
        captured = capsys.readouterr()
        assert "config error at (top level): " in captured.out
        assert "'tolerance_overrides' was unexpected" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not out_dir.exists()

    def test_no_kind_declares_a_criterion_param(self):
        def criterion(name):
            return (name == "tol" or name.endswith("_tol")
                    or name in ("p_rtol", "r2_min")
                    or name.endswith("_cap") or name.startswith("check_"))
        declared = {(kind, p.name) for kind, entry in CHECKS.items()
                    for p in entry.params if criterion(p.name)}
        assert declared == set()


class TestCheckParams:
    @pytest.mark.parametrize("kind, params, path", [
        ("kernel-mass", {"t": "abc"}, "t"),
        ("garding", {"ell": "two"}, "ell"),
        ("garding", {"eps": 0.5}, "eps"),
        ("e-bound", {"n": 2.5}, "n"),
        ("kernel-semigroup", {"n_half": 0}, "n_half"),
        ("kernel-symmetry", {"spec": {"directions": [[0.0]]}},
         "spec.directions[0]"),
        ("kernel-mass", {"bogus": 1}, "bogus"),
        # vectors must have one component per axis of the system
        ("kernel-mass", {"points": [[1.0, 2.0]]}, "points[0]"),
        ("compact-support-l1", {"y": [1.0, 0.0]}, "y"),
        # one radius, or a repeated one, leaves the fit no held-out pair
        ("compact-support-l1", {"radii": [1.0]}, "radii"),
        ("compact-support-l1", {"radii": [1.0, 1.0]}, "radii"),
        ("compact-support-l1", {"radii": [0.5, 1, 1.0]}, "radii"),
        # outside [T_DIRECT_MIN, T_DIRECT_MAX] q_t is itself formed by the
        # scaling law, and the check would compare a computation with itself
        ("kernel-scaling", {"t_values": [8.0]}, "t_values[0]"),
        ("kernel-scaling", {"t_values": [0.5, 0.1]}, "t_values[1]"),
        # at t = 1 both sides of the law are one computation
        ("kernel-scaling", {"t_values": [0.5, 1.0]}, "t_values[1]"),
        ("kernel-scaling", {"t_values": [1]}, "t_values[0]"),
        ("kernel-symmetry", {"spec": {"directions": [[1.0, 0.0]]}},
         "spec.directions[0]"),
    ])
    def test_malformed_params_exit_one_with_path(self, tmp_path, out_dir,
                                                 capsys, kind, params, path):
        config = dict(FAST_CONFIG, checks=[{"kind": "e-bound"},
                                           {"kind": kind, "params": params}])
        assert run(str(write_config(tmp_path, config))) == 1
        out = capsys.readouterr().out
        assert f"config error at checks[1].params.{path}:" in out
        assert not out_dir.exists()

    def test_numeric_param_of_wrong_type_names_its_type(self, tmp_path,
                                                         out_dir, capsys):
        # the example message the README gives
        config = dict(FAST_CONFIG, checks=[{"kind": "e-bound"},
                                           {"kind": "kernel-mass",
                                            "params": {"t": "abc"}}])
        assert run(str(write_config(tmp_path, config))) == 1
        out = capsys.readouterr().out
        assert ("config error at checks[1].params.t: 'abc' is not of type "
                "'number'") in out
        assert not out_dir.exists()

    @pytest.mark.parametrize("kind", ["kernel-symmetry", "kernel-semigroup",
                                      "kernel-scaling",
                                      "kernel-decomposition"])
    def test_time_is_not_a_param_of_spec_kinds(self, tmp_path, out_dir,
                                               capsys, kind):
        # their time is kernel.t or params.spec.t; a bare t used to be
        # accepted and then ignored
        config = dict(FAST_CONFIG, checks=[{"kind": kind,
                                            "params": {"t": 2.0}}])
        assert run(str(write_config(tmp_path, config))) == 1
        out = capsys.readouterr().out
        assert f"config error at checks[0].params.t: {kind!r} does not " \
               f"accept ['t']; accepted: " in out
        accepted = out.split("accepted:")[1]
        assert "'spec'" in accepted and "'t'" not in accepted

    def test_run_check_holds_vectors_to_the_context_dimension(self):
        ctx = build_context({"system": {"type": "rank1", "k": 0.5}})
        with pytest.raises(ConfigError, match=r"params\.points\[0\]: "):
            run_check(ctx, "kernel-mass", {"points": [[1.0, 2.0]]})

    def test_kernel_mass_keeps_its_heat_time(self):
        assert CHECKS["kernel-mass"].resolve({"t": 2})["t"] == 2.0

    def test_defaults_and_coercion_come_from_the_table(self):
        params = CHECKS["heat-gaussian-bound"].resolve({"t_set": [1, 2]})
        assert params == {"t_set": [1.0, 2.0]}
        assert all(type(t) is float for t in params["t_set"])
        assert CHECKS["heat-gaussian-bound"].resolve() == {
            "t_set": [0.5, 1.0, 2.0]}
        # a derived default is left to the check
        assert CHECKS["thm2-two-point"].resolve() == {
            "freq_box": None, "freq_n_half": None}


class TestRegistryCatalog:
    def test_sixteen_kinds_registered(self):
        assert set(CHECKS) == ALL_KINDS
        assert len(CHECKS) == 16

    def test_catalog_is_sorted_and_described(self):
        entries = list_checks()
        assert [e.kind for e in entries] == sorted(ALL_KINDS)
        for entry in entries:
            assert entry.description
            assert all(isinstance(p, Param) for p in entry.params)

    def test_schema_enumerates_registered_kinds(self):
        schema = config_schema()
        kind_enum = (schema["properties"]["checks"]["items"]
                     ["properties"]["kind"]["enum"])
        assert kind_enum == sorted(ALL_KINDS)


class TestBuilders:
    def test_build_rank_one_system(self):
        system = build_system({"type": "rank1", "k": 0.7})
        assert system.dim == 1
        assert system.ks.tolist() == [0.7]

    def test_build_product_system(self):
        system = build_system({"type": "product_z2", "ks": [0.5, 0.25]})
        assert system.dim == 2
        assert system.ks.tolist() == [0.5, 0.25]

    def test_build_context_applies_grid_settings(self):
        config = {"system": {"type": "rank1", "k": 0.0},
                  "grid": {"box": 10.0, "n_half": 64,
                           "freq_box": 9.0, "freq_n_half": 32}}
        ctx = build_context(config)
        assert (ctx.box, ctx.n_half) == (10.0, 64)
        assert (ctx.freq_box, ctx.freq_n_half) == (9.0, 32)

    def test_kernel_spec_defaults_to_heat(self):
        spec = build_kernel_spec({}, dim=2)
        assert spec.ell == 1
        assert spec.eps == 0.0
        assert spec.t == 1.0
        np.testing.assert_allclose(np.asarray(spec.directions), np.eye(2))

    def test_kernel_spec_from_config(self):
        config = {"kernel": {"directions": [[1, 0], [1, 1]], "ell": 2,
                             "eps": 0.05, "t": 0.5}}
        spec = build_kernel_spec(config, dim=2)
        assert spec.ell == 2
        assert spec.eps == 0.05
        assert spec.t == 0.5
        assert spec.directions == ((1.0, 0.0), (1.0, 1.0))


class TestReportFiles:
    def test_filenames_for_unique_kinds(self):
        names = report_filenames("exp", "abcdef012345",
                                 ["kernel-mass", "e-bound"])
        assert names == ["exp_abcdef012345_kernel-mass.json",
                         "exp_abcdef012345_e-bound.json"]

    def test_duplicate_kinds_get_index_suffixes(self):
        names = report_filenames("exp", "h", ["e-bound", "mass", "e-bound"])
        assert names == ["exp_h_e-bound_0.json", "exp_h_mass.json",
                         "exp_h_e-bound_1.json"]

    def test_summary_csv_layout(self, tmp_path):
        passing = VerificationReport.from_defect(
            "kernel-mass", {"t": 1.0}, 1e-9, 1e-6, fitted={"c_cal": 0.25})
        failing = VerificationReport.from_defect("e-bound", {}, 1.0, 1e-10)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [("kernel-mass", passing),
                                 ("e-bound", failing)])
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["check_index", "kind", "name", "value"]
        assert ["0", "kernel-mass", "pass", "1"] in rows
        assert ["0", "kernel-mass", "c_cal", "0.25"] in rows
        assert ["1", "e-bound", "pass", "0"] in rows
        # every check contributes pass/margin/max_defect/tolerance rows
        names_0 = [r[2] for r in rows[1:] if r[0] == "0"]
        assert names_0[:4] == ["pass", "margin", "max_defect", "tolerance"]

    def test_summary_csv_skips_array_fitted_values(self, tmp_path):
        report = VerificationReport.from_defect(
            "thm1-decay", {}, 1e-3, 1.0,
            fitted={"p": 2.0, "radii": [1.0, 2.0]})
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [("thm1-decay", report)])
        names = [r[2] for r in csv.reader(path.read_text().splitlines())]
        assert "p" in names
        assert "radii" not in names

    def test_decay_csv_rows(self, tmp_path):
        decay = VerificationReport.from_defect(
            "thm1-decay", {}, 1e-3, 1.0,
            fitted={"radii": [1.0, 2.0], "abs_q": [0.5, 0.0]})
        plain = VerificationReport.from_defect("e-bound", {}, 0.0, 1e-10)
        path = tmp_path / "decay.csv"
        write_decay_csv(path, [("e-bound", plain), ("thm1-decay", decay)])
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["check_index", "radius", "abs_q", "log_abs_q"]
        assert len(rows) == 3  # only the decay check contributes
        assert rows[1][0] == "1"
        assert float(rows[1][3]) == pytest.approx(np.log(0.5))
        # |q| = 0 is recorded with log -inf rather than crashing
        assert rows[2][3] == "-inf"
        assert float(rows[2][3]) == float("-inf")

    def test_decay_csv_header_only_without_decay_checks(self, tmp_path):
        plain = VerificationReport.from_defect("e-bound", {}, 0.0, 1e-10)
        path = tmp_path / "decay.csv"
        write_decay_csv(path, [("e-bound", plain)])
        assert path.read_text().splitlines() == [
            "check_index,radius,abs_q,log_abs_q"]


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "out"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    return target


class TestRunEndToEnd:
    def test_successful_run_writes_all_reports(self, tmp_path, out_dir,
                                               capsys):
        path = write_config(tmp_path, FAST_CONFIG)
        assert run(str(path)) == 0
        out = capsys.readouterr().out
        assert "3/3 checks passed" in out
        assert out.count("[PASS]") == 3

        chash = hashlib.sha256(path.read_bytes()).hexdigest()[:CONFIG_HASH_LEN]
        assert len(chash) == 12
        expected = {f"exp_{chash}_e-bound.json",
                    f"exp_{chash}_kernel-mass.json",
                    f"exp_{chash}_thm1-decay.json",
                    f"exp_{chash}_summary.csv",
                    f"exp_{chash}_decay.csv"}
        assert {p.name for p in out_dir.iterdir()} == expected

        for name in expected:
            if not name.endswith(".json"):
                continue
            payload = json.loads((out_dir / name).read_text())
            assert set(payload) == {"check", "params", "pass", "margin",
                                    "max_defect", "tolerance", "fitted",
                                    "grid", "notes"}
            assert payload["pass"] is True
        # booleans must serialize as JSON booleans, not 0/1
        mass_text = (out_dir / f"exp_{chash}_kernel-mass.json").read_text()
        assert '"pass": true' in mass_text

        summary = list(csv.reader(
            (out_dir / f"exp_{chash}_summary.csv").read_text().splitlines()))
        assert summary[0] == ["check_index", "kind", "name", "value"]
        assert {row[0] for row in summary[1:]} == {"0", "1", "2"}

        decay = list(csv.reader(
            (out_dir / f"exp_{chash}_decay.csv").read_text().splitlines()))
        assert len(decay) > 10
        radii = [float(row[1]) for row in decay[1:]]
        assert radii == sorted(radii)

    def test_env_var_overrides_config_output_dir(self, tmp_path, out_dir):
        ignored = tmp_path / "ignored"
        config = dict(FAST_CONFIG, checks=[{"kind": "e-bound"}],
                      output_dir=str(ignored))
        path = write_config(tmp_path, config)
        assert run(str(path)) == 0
        assert out_dir.exists() and any(out_dir.iterdir())
        assert not ignored.exists()

    def test_config_output_dir_used_when_env_unset(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        target = tmp_path / "from_config"
        config = dict(FAST_CONFIG, checks=[{"kind": "e-bound"}],
                      output_dir=str(target))
        path = write_config(tmp_path, config)
        assert run(str(path)) == 0
        assert any(p.suffix == ".json" for p in target.iterdir())

    def test_exit_two_when_a_check_fails(self, tmp_path, out_dir, capsys,
                                         monkeypatch):
        monkeypatch.setattr(kernels, "MASS_TOL", 1e-20)
        config = dict(FAST_CONFIG, checks=[{"kind": "kernel-mass"}])
        path = write_config(tmp_path, config)
        assert run(str(path)) == 2
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "0/1 checks passed" in out
        report_path, = out_dir.glob("*kernel-mass.json")
        payload = json.loads(report_path.read_text())
        assert payload["pass"] is False
        assert payload["tolerance"] == 1e-20
        assert payload["params"]["tol"] == 1e-20

    def test_underflowed_heat_bound_exits_one_without_nan(self, tmp_path,
                                                          out_dir, capsys):
        # at t = 1e-4 held-out heat values and their envelope are both 0:
        # the ratio 0/0 used to be written into the report as NaN
        config = dict(FAST_CONFIG, checks=[
            {"kind": "heat-gaussian-bound", "params": {"t_set": [1e-4]}}])
        assert run(str(write_config(tmp_path, config))) == 1
        out = capsys.readouterr().out
        assert "underflow to 0 at t = 0.0001" in out
        error_path, = out_dir.glob("*heat-gaussian-bound_error.json")
        error = json.loads(error_path.read_text())["error"]
        assert error["type"] == "AccuracyError"
        assert not list(out_dir.glob("*heat-gaussian-bound.json"))
        for path in out_dir.iterdir():
            assert "nan" not in path.read_text().lower()

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        assert run(str(path)) == 1
        out = capsys.readouterr().out
        assert re.match(rf"^{re.escape(str(path))}:1:\d+: invalid JSON: ",
                        out)

    def test_schema_error_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            minimal_config(system={"type": "dihedral"}))
        assert run(str(path)) == 1
        assert "configuration error:" in capsys.readouterr().out

    def test_three_axis_system_exits_one_without_report(self, tmp_path,
                                                         out_dir, capsys):
        config = minimal_config(system={"type": "product_z2",
                                        "ks": [0.5, 0.5, 0.5]})
        path = write_config(tmp_path, config)
        assert cli.main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "config error at system.ks" in captured.out
        assert "Traceback" not in captured.out + captured.err
        assert not out_dir.exists() or not any(out_dir.iterdir())

    def test_check_error_reported_with_index_and_kind(self, tmp_path,
                                                      out_dir, capsys):
        # a 3-wide box truncates the Gaussian enough that the
        # normalization constant fails its refinement cross-check
        config = {"system": {"type": "rank1"},
                  "grid": {"box": 3.0, "n_half": 8,
                           "freq_box": 4.0, "freq_n_half": 8},
                  "checks": [{"kind": "kernel-mass"}]}
        path = write_config(tmp_path, config)
        assert run(str(path)) == 1
        out = capsys.readouterr().out
        assert "error in check 0 (kernel-mass):" in out
        assert "unstable under refinement" in out

    def test_raising_check_keeps_the_reports_that_finished(
            self, tmp_path, out_dir, capsys):
        # exp-weighted-l1 on 81 nodes raises (its frequency box aliases);
        # e-bound finishes, and its report is written all the same
        raising = {"kind": "exp-weighted-l1",
                   "params": {"n_half": 81, "ell": 1}}
        config = {"system": {"type": "rank1", "k": 0.5}, "workers": 1,
                  "checks": [{"kind": "e-bound"}, raising]}
        path = write_config(tmp_path, config)
        assert run(str(path)) == 1
        out = capsys.readouterr().out
        assert "error in check 1 (exp-weighted-l1):" in out
        report_path, = out_dir.glob("exp_*_e-bound.json")
        assert json.loads(report_path.read_text())["pass"] is True
        error_path, = out_dir.glob("exp_*_exp-weighted-l1_error.json")
        record = json.loads(error_path.read_text())
        assert record["check"] == "exp-weighted-l1"
        assert record["params"] == raising["params"]
        assert record["error"]["type"] == "DomainTooSmallError"
        assert "lower freq_box" in record["error"]["message"]
        assert not list(out_dir.glob("exp_*_exp-weighted-l1.json"))
        summary, = out_dir.glob("exp_*_summary.csv")
        rows = list(csv.reader(summary.read_text().splitlines()))
        assert ["0", "e-bound", "pass", "1"] in rows
        assert ["1", "exp-weighted-l1", "error",
                "DomainTooSmallError"] in rows

    def test_fault_in_one_check_is_raised_after_the_reports_are_written(
            self, tmp_path, out_dir, monkeypatch):
        # an exception outside the DunklLabError taxonomy is a fault: the
        # run writes what finished, then raises that very exception
        fault = RuntimeError("injected fault")

        def broken(ctx, spec, params):
            raise fault

        monkeypatch.setitem(CHECKS, "kernel-laplacian",
                            replace(CHECKS["kernel-laplacian"], run=broken))
        config = {"system": {"type": "rank1", "k": 0.5}, "workers": 2,
                  "checks": [{"kind": "e-bound"},
                             {"kind": "kernel-laplacian"}]}
        with pytest.raises(RuntimeError) as info:
            run(str(write_config(tmp_path, config)))
        assert info.value is fault
        report_path, = out_dir.glob("exp_*_e-bound.json")
        assert json.loads(report_path.read_text())["pass"] is True
        error_path, = out_dir.glob("exp_*_kernel-laplacian_error.json")
        record = json.loads(error_path.read_text())["error"]
        assert record == {"type": "RuntimeError", "message": "injected fault"}
        summary, = out_dir.glob("exp_*_summary.csv")
        rows = list(csv.reader(summary.read_text().splitlines()))
        assert ["0", "e-bound", "pass", "1"] in rows
        assert ["1", "kernel-laplacian", "error", "RuntimeError"] in rows
        assert len(list(out_dir.glob("exp_*_decay.csv"))) == 1

    def test_non_finite_positivity_values_are_an_error_record(
            self, tmp_path, out_dir, capsys):
        # at radius 1e6 the heat kernel is NaN on most sampled pairs; the
        # check used to PASS with min_value inf
        config = {"system": {"type": "rank1", "k": 0.5},
                  "checks": [{"kind": "kernel-positivity",
                              "params": {"radius": 1e6}}]}
        assert run(str(write_config(tmp_path, config))) == 1
        assert "error in check 0 (kernel-positivity):" in (
            capsys.readouterr().out)
        error_path, = out_dir.glob("exp_*_kernel-positivity_error.json")
        error = json.loads(error_path.read_text())["error"]
        assert error["type"] == "AccuracyError"
        assert "h_t(x, y) is NaN at t = 0.5:" in error["message"]
        assert not list(out_dir.glob("exp_*_kernel-positivity.json"))

    def test_out_of_window_time_is_an_error_record_not_a_traceback(
            self, tmp_path, out_dir, capsys):
        # q_t is sampled on the grid for t in [0.25, 4] only; kernel-semigroup
        # at t = 10 raises there, and the run keeps the e-bound report
        raising = {"kind": "kernel-semigroup",
                   "params": {"spec": {"directions": [[1.0]], "ell": 1,
                                       "eps": 0.0, "t": 10.0}}}
        config = {"system": {"type": "rank1", "k": 0.5},
                  "checks": [{"kind": "e-bound"}, raising]}
        path = write_config(tmp_path, config)
        assert cli.main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "error in check 1 (kernel-semigroup):" in captured.out
        report_path, = out_dir.glob("exp_*_e-bound.json")
        assert json.loads(report_path.read_text())["pass"] is True
        error_path, = out_dir.glob("exp_*_kernel-semigroup_error.json")
        record = json.loads(error_path.read_text())
        assert record["params"] == raising["params"]
        assert record["error"]["type"] == "CapabilityError"
        assert "t in [0.25, 4]" in record["error"]["message"]

    def test_short_decay_sample_is_an_error_record_not_a_traceback(
            self, tmp_path, out_dir, capsys):
        # q_t at t = 0.05 falls below the sample floor within a radius ratio
        # of 4: the decay fit has too little data, an error of the check,
        # and the run keeps the e-bound report
        config = {"system": {"type": "rank1", "k": 0.5},
                  "kernel": {"t": 0.05},
                  "checks": [{"kind": "e-bound"}, {"kind": "thm1-decay"}]}
        path = write_config(tmp_path, config)
        assert cli.main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "error in check 1 (thm1-decay):" in captured.out
        report_path, = out_dir.glob("exp_*_e-bound.json")
        assert json.loads(report_path.read_text())["pass"] is True
        error_path, = out_dir.glob("exp_*_thm1-decay_error.json")
        record = json.loads(error_path.read_text())
        assert record["error"]["type"] == "FitConvergenceError"
        assert "radius ratio" in record["error"]["message"]
        summary, = out_dir.glob("exp_*_summary.csv")
        rows = list(csv.reader(summary.read_text().splitlines()))
        assert ["1", "thm1-decay", "error", "FitConvergenceError"] in rows

    @pytest.mark.parametrize("kind, params, message", UNDERFLOW_CASES)
    def test_underflowed_divisor_is_an_error_record_not_a_traceback(
            self, tmp_path, out_dir, capsys, kind, params, message):
        self._assert_error_record(tmp_path, out_dir, capsys, kind, params,
                                  message)

    @pytest.mark.parametrize("kind, params, message", UNDERFLOW_CASES)
    def test_underflowed_divisor_raises_accuracy_error_in_run_check(
            self, kind, params, message):
        self._assert_accuracy_error(kind, params, message)

    @pytest.mark.parametrize("kind, params, message", NON_FINITE_CASES)
    def test_non_finite_report_is_an_error_record(
            self, tmp_path, out_dir, capsys, kind, params, message):
        self._assert_error_record(tmp_path, out_dir, capsys, kind, params,
                                  message)
        # the error record names the number; no report or table holds one
        for path in out_dir.iterdir():
            if not path.name.endswith("_error.json"):
                text = path.read_text().lower()
                assert "nan" not in text and "infinity" not in text

    @pytest.mark.parametrize("kind, params, message", NON_FINITE_CASES)
    def test_non_finite_report_raises_accuracy_error_in_run_check(
            self, kind, params, message):
        self._assert_accuracy_error(kind, params, message)

    def test_garding_counterexample_is_a_fail_report(
            self, tmp_path, out_dir, capsys, monkeypatch):
        # the second family member, held out, gets A_i = -1e6: its
        # A_i + C S_i is <= 0, so the inequality fails outright.  That is a
        # FAIL report (exit 2) with a finite ratio, not an error record
        true_terms = forms._coercivity_terms
        calls = []

        def broken_terms(*args):
            A, H, V = true_terms(*args)
            calls.append(None)
            return (-1e6 if len(calls) == 2 else A), H, V

        monkeypatch.setattr(forms, "_coercivity_terms", broken_terms)
        config = {"system": {"type": "rank1", "k": 0.5},
                  "checks": [{"kind": "garding",
                              "params": {"s_set": [1.0]}}]}
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 2
        assert "[FAIL]" in capsys.readouterr().out
        assert not list(out_dir.glob("exp_*_error.json"))
        report_path, = out_dir.glob("exp_*_garding.json")
        payload = json.loads(report_path.read_text())
        assert payload["pass"] is False
        assert payload["fitted"]["alpha"] > 0
        assert payload["fitted"]["holdout_ratio"] == MARGIN_CAP
        assert payload["max_defect"] == MARGIN_CAP

    @pytest.mark.parametrize("kind, params, message", OVERFLOW_CASES)
    def test_overflowed_scale_is_an_error_record_not_a_traceback(
            self, tmp_path, out_dir, capsys, kind, params, message):
        self._assert_error_record(tmp_path, out_dir, capsys, kind, params,
                                  message)

    @pytest.mark.parametrize("kind, params, message", OVERFLOW_CASES)
    def test_overflowed_scale_raises_accuracy_error_in_run_check(
            self, kind, params, message):
        self._assert_accuracy_error(kind, params, message)

    @pytest.mark.parametrize("kind, params, error, message", RULE_CASES)
    def test_kernel_rule_rejection_is_an_error_record(
            self, tmp_path, out_dir, capsys, kind, params, error, message):
        self._assert_error_record(tmp_path, out_dir, capsys, kind, params,
                                  message, error)

    @staticmethod
    def _assert_error_record(tmp_path, out_dir, capsys, kind, params,
                             message, error="AccuracyError"):
        config = {"system": {"type": "rank1", "k": 0.5},
                  "checks": [{"kind": "e-bound"},
                             {"kind": kind, "params": params}]}
        assert cli.main(["run", str(write_config(tmp_path, config))]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert f"error in check 1 ({kind}):" in captured.out
        report_path, = out_dir.glob("exp_*_e-bound.json")
        assert json.loads(report_path.read_text())["pass"] is True
        error_path, = out_dir.glob(f"exp_*_{kind}_error.json")
        record = json.loads(error_path.read_text())["error"]
        assert record["type"] == error
        assert message in record["message"]
        assert not list(out_dir.glob(f"exp_*_{kind}.json"))

    @staticmethod
    def _assert_accuracy_error(kind, params, message):
        ctx = build_context({"system": {"type": "rank1", "k": 0.5}})
        with pytest.raises(AccuracyError, match=re.escape(message)):
            run_check(ctx, kind, params)

    def test_order_two_translation_lipschitz_sizes_its_spatial_box(
            self, tmp_path, out_dir, capsys):
        # q_1 of order 2 outlives the default 12 box; the check takes the
        # spatial grid of the convolution checks and reaches a verdict
        config = {"system": {"type": "rank1", "k": 1.0},
                  "kernel": {"ell": 2},
                  "checks": [{"kind": "translation-lipschitz"}]}
        path = write_config(tmp_path, config)
        assert run(str(path)) != 1
        assert "error in check" not in capsys.readouterr().out
        report_path, = out_dir.glob("*translation-lipschitz.json")
        grid = json.loads(report_path.read_text())["grid"]
        assert (grid["box"], grid["n_half"]) == (48.0, 600)

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(str(tmp_path / "nope.json")) == 1
        assert "cannot read config" in capsys.readouterr().out

    def test_rerun_produces_identical_bytes(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, FAST_CONFIG)
        dirs = (tmp_path / "first", tmp_path / "second")
        for target in dirs:
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
            assert run(str(path)) == 0
        first = sorted(p.name for p in dirs[0].iterdir())
        second = sorted(p.name for p in dirs[1].iterdir())
        assert first == second
        for name in first:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes(), name

    def test_worker_count_does_not_change_reports(self, tmp_path,
                                                  monkeypatch):
        payloads = []
        for workers in (1, 2):
            config = dict(FAST_CONFIG, workers=workers)
            path = write_config(tmp_path, config, name=f"w{workers}.json")
            target = tmp_path / f"out{workers}"
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
            assert run(str(path)) == 0
            payloads.append({
                p.name.split("_", 2)[-1]: json.loads(p.read_text())
                for p in target.glob("*.json")})
        assert payloads[0] == payloads[1]


    def test_translation_lipschitz_runs_without_spec(self, tmp_path,
                                                     monkeypatch):
        # without params.spec the runner's kernel (the heat kernel by
        # default) is used, as if it were written out in the config
        heat = {"directions": [[1.0]], "ell": 1, "eps": 0.0, "t": 1.0}
        payloads = []
        for name, params in (("bare", {}), ("explicit", {"spec": heat})):
            config = dict(FAST_CONFIG, checks=[
                {"kind": "translation-lipschitz", "params": params}])
            path = write_config(tmp_path, config, name=f"{name}.json")
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / name))
            assert run(str(path)) == 0
            report, = (tmp_path / name).glob("*translation-lipschitz.json")
            payloads.append(report.read_bytes())
        assert payloads[0] == payloads[1]

    def test_every_kind_runs_from_one_config(self, tmp_path, out_dir, capsys):
        config = {"system": {"type": "rank1", "k": 0.5}, "workers": 2,
                  "checks": [{"kind": kind} for kind in sorted(ALL_KINDS)]}
        path = write_config(tmp_path, config)
        assert run(str(path)) == 0
        assert "16/16 checks passed" in capsys.readouterr().out
        chash = hashlib.sha256(path.read_bytes()).hexdigest()[:CONFIG_HASH_LEN]
        assert {p.name for p in out_dir.iterdir()} == (
            {f"exp_{chash}_{kind}.json" for kind in ALL_KINDS}
            | {f"exp_{chash}_summary.csv", f"exp_{chash}_decay.csv"})
        for kind in ALL_KINDS:
            payload = json.loads(
                (out_dir / f"exp_{chash}_{kind}.json").read_text())
            # the Laplacian report keeps its earlier name
            assert payload["check"] == {
                "kernel-laplacian": "kernel-laplacian-consistency"}.get(
                    kind, kind)

    def test_rank2_pointwise_reports_independent_of_workers(self, tmp_path,
                                                             monkeypatch):
        # garding and heat-gaussian-bound share the Legendre rule cache and
        # run side by side on two workers; the bytes must not change
        config = {"system": {"type": "product_z2", "ks": [0.5, 0.5]},
                  "checks": [{"kind": "garding"},
                             {"kind": "heat-gaussian-bound"}]}
        outputs = []
        for workers in (1, 2):
            path = write_config(tmp_path, dict(config, workers=workers),
                                name=f"w{workers}.json")
            target = tmp_path / f"out{workers}"
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
            assert run(str(path)) == 0
            outputs.append({p.name.split("_", 2)[-1]: p.read_bytes()
                            for p in target.iterdir()})
        assert set(outputs[0]) == {"garding.json", "heat-gaussian-bound.json",
                                   "summary.csv", "decay.csv"}
        assert outputs[0] == outputs[1]


class TestCli:
    def test_version(self, capsys):
        assert cli.main(["version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"dunkllab {__version__}"

    def test_list_checks_catalog(self, capsys):
        assert cli.main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for kind in ALL_KINDS:
            assert kind in out
        assert OUTPUT_DIR_ENV in out
        assert "optional params" in out

    def test_catalog_shows_every_param_with_type_and_default(self, capsys):
        assert cli.main(["list-checks"]) == 0
        blocks = capsys.readouterr().out.split("\n\n")[1:]
        by_kind = {block.splitlines()[0]: block for block in blocks if block}
        assert set(by_kind) == ALL_KINDS
        for kind, entry in CHECKS.items():
            lines = {line.split(":", 1)[0].strip(): line
                     for line in by_kind[kind].splitlines()[3:]}
            assert set(lines) == {p.name for p in entry.params}
            for p in entry.params:
                kind_word = ("vector" if p.schema.get("vector")
                             else p.schema["type"].replace("array", "list"))
                default = (p.default if isinstance(p.default, Derived)
                           else json.dumps(p.default))
                assert kind_word in lines[p.name]
                assert lines[p.name].endswith(f"; default {default}")

    def test_catalog_shows_the_kernel_scaling_window(self, capsys):
        assert cli.main(["list-checks"]) == 0
        assert (f"t_values: list of number, >= {T_DIRECT_MIN:g}, "
                f"<= {T_DIRECT_MAX:g}, != 1; default [0.5, 2.0]"
                in capsys.readouterr().out)

    def test_run_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        config = dict(FAST_CONFIG, checks=[{"kind": "e-bound"}])
        path = write_config(tmp_path, config)
        assert cli.main(["run", str(path)]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])
