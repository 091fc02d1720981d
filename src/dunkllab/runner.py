"""Configuration-driven experiment runner.

Reads a JSON config describing a reflection-group setup, a symbol, and a
list of checks; runs the checks on a bounded worker pool; writes one JSON
report per check plus a flat summary CSV and a plot-ready decay CSV.
Check kinds and their parameters come from the one registry,
``checks.CHECKS``, filled where each check is defined (``kernels``,
``harness``); ``run_check`` runs one of them by name.

Determinism contract: re-running an unchanged config overwrites all output
files with identical bytes.  Every output filename embeds a hash of the
config bytes.  Wall-clock timings are printed to the console only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jsonschema
import numpy as np

from . import harness  # noqa: F401  (enters its checks in the registry)
from .checks import (CHECKS, GRID_SCHEMA, KERNEL_SCHEMA, coerce, json_path,
                     validate)
from .errors import ConfigError, DunklLabError, SymbolError
from .kernels import KernelSpec
from .measure import WeightedContext
from .report import VerificationReport, to_builtin
from .root_systems import RootSystemSpec, product_z2, rank1

OUTPUT_DIR_ENV = "DUNKLLAB_OUTPUT_DIR"
CONFIG_HASH_LEN = 12


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def config_schema() -> dict:
    """JSON schema for experiment configs; unknown keys are rejected.  Each
    check's ``params`` are checked against its kind's own schema
    (``CHECKS[kind].schema``) by ``validate_config``."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["system", "checks"],
        "properties": {
            "system": {
                "type": "object",
                "additionalProperties": False,
                "required": ["type"],
                "properties": {
                    "type": {"enum": ["rank1", "product_z2"]},
                    "k": {"type": "number", "minimum": 0},
                    "ks": {"type": "array", "minItems": 1, "maxItems": 2,
                           "items": {"type": "number", "minimum": 0}},
                },
            },
            "grid": GRID_SCHEMA,
            "kernel": KERNEL_SCHEMA,
            "checks": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": sorted(CHECKS)},
                        "params": {"type": "object"},
                    },
                },
            },
            "output_dir": {"type": "string"},
            "workers": {"type": "integer", "minimum": 1},
        },
    }


def validate_config(config: dict) -> None:
    """Schema validation, then each check's params against its kind."""
    try:
        jsonschema.validate(config, config_schema())
    except jsonschema.ValidationError as err:
        raise ConfigError(f"config error at {json_path(err.absolute_path)}: "
                          f"{err.message}") from err
    system = config["system"]
    stype = system["type"]
    required = {"rank1": set(), "product_z2": {"ks"}}
    allowed = {"rank1": {"type", "k"}, "product_z2": {"type", "ks"}}
    missing = required[stype] - set(system)
    extra = set(system) - allowed[stype]
    if missing:
        raise ConfigError(f"config error at system: type {stype!r} requires "
                          f"{sorted(missing)}")
    if extra:
        raise ConfigError(f"config error at system: type {stype!r} does not "
                          f"accept {sorted(extra)}")
    dim = 1 if stype == "rank1" else len(system["ks"])
    validate(config.get("kernel", {}), KERNEL_SCHEMA, ("kernel",), dim)
    _check_kernel(config.get("kernel", {}), ("kernel",), dim)
    for i, chk in enumerate(config["checks"]):
        params, where = chk.get("params", {}), ("checks", i, "params")
        CHECKS[chk["kind"]].validate(params, where, dim)
        if "spec" in params:
            _check_kernel(params["spec"], (*where, "spec"), dim)


def _check_kernel(kernel: dict, where: tuple, dim: int) -> None:
    """ConfigError at the kernel section ``where`` if ``KernelSpec``
    rejects it, at the key its SymbolError names if it names one."""
    try:
        KernelSpec.from_config(kernel, dim)
    except SymbolError as err:
        path = where if err.key is None else (*where, err.key)
        raise ConfigError(f"config error at {json_path(path)}: {err}")


# ---------------------------------------------------------------------------
# building blocks from config
# ---------------------------------------------------------------------------

def build_system(system_cfg: dict) -> RootSystemSpec:
    if system_cfg["type"] == "rank1":
        return rank1(float(system_cfg.get("k", 0.0)))
    return product_z2([float(k) for k in system_cfg["ks"]])


def build_context(config: dict) -> WeightedContext:
    grid = {key: coerce(value, GRID_SCHEMA["properties"][key])
            for key, value in config.get("grid", {}).items()}
    return WeightedContext(build_system(config["system"]), **grid)


def build_kernel_spec(config: dict, dim: int) -> KernelSpec:
    return KernelSpec.from_config(config.get("kernel") or {}, dim)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------

def _config_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:CONFIG_HASH_LEN]


def report_filenames(stem: str, chash: str, kinds: list[str]) -> list[str]:
    """Per-check JSON filenames; duplicate kinds get an index suffix."""
    total, seen = Counter(kinds), Counter()
    names = []
    for kind in kinds:
        suffix = f"_{seen[kind]}" if total[kind] > 1 else ""
        seen[kind] += 1
        names.append(f"{stem}_{chash}_{kind}{suffix}.json")
    return names


def _flat_constant_rows(index: int, kind: str,
                        report: VerificationReport) -> list[tuple]:
    rows = [(index, kind, "pass", int(report.passed)),
            (index, kind, "margin", report.margin),
            (index, kind, "max_defect", report.max_defect),
            (index, kind, "tolerance", report.tolerance)]
    for name in sorted(report.fitted):
        value = report.fitted[name]
        if isinstance(value, (bool, int, float, np.integer, np.floating)):
            rows.append((index, kind, name, to_builtin(value)))
    return rows


def write_summary_csv(path: Path, results: list[tuple]) -> None:
    """Flat constant rows per check; a check that raised (its exception in
    place of its report) has one ``error`` row naming the error type."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_index", "kind", "name", "value"])
    for i, (kind, report) in enumerate(results):
        if isinstance(report, Exception):
            writer.writerow([i, kind, "error", type(report).__name__])
        else:
            writer.writerows(_flat_constant_rows(i, kind, report))
    path.write_text(buf.getvalue())


def write_decay_csv(path: Path, results: list[tuple]) -> None:
    """Plot-ready radius vs log|q| data from every decay check (checks that
    raised are skipped)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_index", "radius", "abs_q", "log_abs_q"])
    for i, (kind, report) in enumerate(results):
        if isinstance(report, Exception):
            continue
        radii = report.fitted.get("radii")
        values = report.fitted.get("abs_q")
        if radii is None or values is None:
            continue
        for r, v in zip(radii, values):
            logv = np.log(v) if v > 0 else float("-inf")
            writer.writerow([i, repr(float(r)), repr(float(v)),
                             repr(float(logv))])
    path.write_text(buf.getvalue())


def _write_report_json(path: Path, report: VerificationReport) -> None:
    payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    path.write_text(payload + "\n")


def _write_error_json(path: Path, chk: dict, err: Exception) -> None:
    """The record of a check that raised: its kind and config params, the
    error type and its message."""
    record = {"check": chk["kind"], "params": chk.get("params", {}),
              "error": {"type": type(err).__name__, "message": str(err)}}
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_check(ctx: WeightedContext, kind: str, params: dict | None = None,
              spec: KernelSpec | None = None) -> VerificationReport:
    """Run the registered check ``kind`` with ``params`` (defaults filled
    from its declared table).  ``spec`` is the experiment's kernel, by
    default the heat kernel; a kind that declares ``spec`` uses
    ``params["spec"]`` in its place when given."""
    if kind not in CHECKS:
        raise ValueError(f"unknown check kind {kind!r}; known: "
                         f"{sorted(CHECKS)}")
    entry = CHECKS[kind]
    params = entry.resolve(params, dim=ctx.dim)
    if params.get("spec") is not None:
        spec = KernelSpec.from_config(params["spec"], ctx.dim)
    elif spec is None:
        spec = KernelSpec.heat(ctx.dim)
    return entry.run(ctx, spec, params)


def _execute_one(ctx, spec, chk: dict):
    start = time.perf_counter()
    report = run_check(ctx, chk["kind"], chk.get("params"), spec)
    return report, time.perf_counter() - start


def run(config_path: str) -> int:
    """Execute an experiment config.

    Returns 0 if every check passed, 2 if any check failed, 1 on
    configuration errors or when a check raised a ``DunklLabError``: the
    reports of the checks that finished are written all the same, and each
    check that raised leaves an error record
    (``<stem>_<hash>_<kind>_error.json``) and an ``error`` row in the
    summary.  Any other exception is a fault: it is recorded the same way,
    and once every file is written the first one is raised again.
    """
    path = Path(config_path)
    try:
        raw = path.read_bytes()
    except OSError as err:
        print(f"cannot read config {config_path}: {err}")
        return 1
    try:
        config = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as err:
        print(f"{config_path}:{err.lineno}:{err.colno}: invalid JSON: "
              f"{err.msg}")
        return 1
    try:
        validate_config(config)
        ctx = build_context(config)
        spec = build_kernel_spec(config, ctx.dim)
    except (ConfigError, DunklLabError, ValueError) as err:
        print(f"configuration error: {err}")
        return 1

    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV)
                   or config.get("output_dir", "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = _config_hash(raw)
    checks = config["checks"]
    workers = int(config.get("workers", os.cpu_count() or 1))

    start = time.perf_counter()
    results: list[tuple[str, VerificationReport | Exception]] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_execute_one, ctx, spec, chk)
                   for chk in checks]
        for i, (chk, fut) in enumerate(zip(checks, futures)):
            err = fut.exception()
            if err is not None:
                print(f"error in check {i} ({chk['kind']}): {err}")
                results.append((chk["kind"], err))
                continue
            report, elapsed = fut.result()
            results.append((chk["kind"], report))
            print(f"{report.summary_line()}  [{elapsed:.2f}s]")

    filenames = report_filenames(path.stem, chash,
                                 [kind for kind, _ in results])
    for fname, chk, (_, report) in zip(filenames, checks, results):
        if isinstance(report, Exception):
            _write_error_json(
                out_dir / (fname.removesuffix(".json") + "_error.json"),
                chk, report)
        else:
            _write_report_json(out_dir / fname, report)
    write_summary_csv(out_dir / f"{path.stem}_{chash}_summary.csv", results)
    write_decay_csv(out_dir / f"{path.stem}_{chash}_decay.csv", results)

    total = time.perf_counter() - start
    reports = [report for _, report in results
               if isinstance(report, VerificationReport)]
    n_pass = sum(report.passed for report in reports)
    n_error = len(results) - len(reports)
    raised = f", {n_error} raised" if n_error else ""
    print(f"{n_pass}/{len(results)} checks passed{raised} in {total:.2f}s; "
          f"reports in {out_dir}")
    for _, err in results:
        if isinstance(err, Exception) and not isinstance(err, DunklLabError):
            raise err
    if n_error:
        return 1
    return 0 if n_pass == len(results) else 2


def list_checks() -> list:
    """Catalog of registered check kinds (``checks.Check``), sorted."""
    return [CHECKS[k] for k in sorted(CHECKS)]
