"""One fresh-interpreter run of dunkllab, started by ``run.py``.

    python3 child.py MODE CONFIG OUT_DIR SPAWNED_AT

MODE is ``setup`` (start-up only), ``timed`` (one ``runner.run``),
``traced`` (the same with the layer tracer installed) or ``probe`` (each
config in CONFIG, a comma-separated list, through ``runner.run``, with any
exception caught).  SPAWNED_AT is the parent's ``time.monotonic()`` just
before the process was started, so set-up time includes interpreter start.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _report_files(runner, config_path: Path, out_dir: Path) -> list:
    """(kind, params, file name) of each check, in config order."""
    raw = config_path.read_bytes()
    checks = json.loads(raw)["checks"]
    chash = hashlib.sha256(raw).hexdigest()[:runner.CONFIG_HASH_LEN]
    names = runner.report_filenames(config_path.stem, chash,
                                    [c["kind"] for c in checks])
    return [[c["kind"], c.get("params", {}), name]
            for c, name in zip(checks, names)]


def main(mode: str, config: str, out_dir: str, spawned_at: float) -> dict:
    from dunkllab import runner

    out = Path(out_dir)
    os.environ[runner.OUTPUT_DIR_ENV] = str(out)
    if mode == "probe":
        probes = []
        for i, path in enumerate(config.split(",")):
            os.environ[runner.OUTPUT_DIR_ENV] = str(out / f"probe{i}")
            try:
                probes.append({"config": path, "exit": runner.run(path),
                               "error": None})
            except Exception as err:  # the probe records any crash
                probes.append({"config": path, "exit": None,
                               "error": f"{type(err).__name__}: {err}"})
        return {"probes": probes}

    config_path = Path(config)
    cfg = json.loads(config_path.read_bytes())
    runner.validate_config(cfg)
    ctx = runner.build_context(cfg)
    runner.build_kernel_spec(cfg, ctx.dim)
    result = {"setup_s": time.monotonic() - spawned_at,
              "versions": _versions()}
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        result["exit"] = runner.run(str(config_path))
        result["error"] = None
    except Exception as err:  # a crashing run fails every check in it
        result["exit"] = None
        result["error"] = f"{type(err).__name__}: {err}"
    result["wall_s"] = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu0
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["reports"] = _report_files(runner, config_path, out)
    if tracer is not None:
        report_bytes = sum(p.stat().st_size for p in out.iterdir())
        result["layers"] = tracing.layer_metrics(
            tracer, {"cpu_s": cpu_s, "report_bytes": report_bytes})
        spans_path = out / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}))
        result["spans_file"] = str(spans_path)
    return result


if __name__ == "__main__":
    mode, config, out_dir, spawned_at = sys.argv[1:5]
    res = main(mode, config, out_dir, float(spawned_at))
    sys.stdout.flush()
    print("\n" + json.dumps(res))
