"""dunkllab benchmark: runs workload configs through ``dunkllab.runner.run``.

    python3 perfbench/run.py --workload rank2-grid --seed 1 --seconds 44 --trace 0

Each repeat of a workload is a fresh interpreter, so import cost and the
module-level caches (the kernel-matrix cache of ``transform`` and the
Gauss-Jacobi ``lru_cache`` of ``quadrature``) start cold, as they do for a
``dunkllab run`` user.  One child process runs at a time.  The BLAS thread
count of a child is set so that runner workers x BLAS threads = nproc.

``--seed`` permutes the check order inside the workload config, with its
own order for each repeat: it changes which check pays a cold cache miss
and which checks overlap in the worker pool, and the median over repeats
averages over orders.  Reports of one check do not depend on the order, so
one reference per check serves every seed, and a check must write the same
report bytes in every repeat.

With ``--trace 0`` the run repeats the workload while the next repeat fits
in ``--seconds`` (at least once) and prints the end-to-end metrics, medians
over the repeats.  With ``--trace 1`` it alternates untraced and traced
repeats and prints the per-layer metrics of the traced ones.  Every report
goes through the correctness gate (``gate.py``), and repeats must write
byte-identical report files.  The last line of standard output is the
result as JSON; the lines before it describe the machine and each repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: the whole run, children included, ends by then (the limit is 180 s)
DEADLINE_S = 170.0
#: set-up samples per run: every repeat gives one, start-up-only children
#: make up the rest
SETUP_SAMPLES = 3

WORKLOADS = ("rank1-sweep", "rank2-grid", "rank2-pointwise")

# Known faults, run on PROBED outside the timed region and counted in its
# failed_frac.
# Each must pass once fixed; "same_as" names the timed check of the
# workload whose reference report the probe's report must then equal.
PROBES = (
    # the runner hands the check a KernelSpec where it expects a dict,
    # so run() raises TypeError; the timed config passes params.spec
    {"config": "probes/translation-lipschitz-nospec.json",
     "same_as": ("translation-lipschitz",
                 {"spec": {"directions": [[1.0]], "ell": 1, "eps": 0.0,
                           "t": 1.0}})},
    # at k = 0 the heat kernel is the classical Gaussian, which is positive
    {"config": "probes/kernel-positivity-k0.json", "same_as": None},
)
PROBED = "rank1-sweep"


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine_info() -> dict:
    info = {"nproc": os.cpu_count(), "cpu": None, "l3": None, "ram_mb": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size"
                          ).read_text().strip()
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["ram_mb"] = int(line.split()[1]) // 1024
    except OSError:
        pass
    return info


def source_id() -> dict:
    """Git commit when there is one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dunkllab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


class Children:
    """Starts one child interpreter at a time, each within the deadline."""

    def __init__(self, deadline: float, blas_threads: int):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(blas_threads)

    def run(self, mode: str, config: str, out_dir: Path) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"crash": "deadline reached before start"}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode, config,
                 str(out_dir), repr(spawned)],
                env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crash": f"{mode} child timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"{mode} child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-600:]}"}
        return json.loads(lines[-1])


class Gate:
    """Gates reports against the references and collects failed operations:
    a timed check fails if any repeat of it fails the gate, a probe if its
    known fault still shows."""

    def __init__(self, references: dict):
        self.references = references
        self.failed: set[str] = set()
        self.timed_ok = True
        self.digests: dict[str, str] = {}

    def fail(self, op: str | None, why: str, timed: bool = True) -> None:
        print(f"FAILED {op or 'run'}: {why}")
        if op is not None:
            self.failed.add(op)
        self.timed_ok = self.timed_ok and not timed

    def _same_bytes(self, name: str, raw: bytes) -> bool:
        digest = hashlib.sha256(raw).hexdigest()
        return self.digests.setdefault(name, digest) == digest

    def repeat(self, result: dict, out_dir: Path, keys: list) -> None:
        """Gate every report of one timed or traced repeat."""
        if "crash" in result or result.get("error"):
            self.fail(None, result.get("crash") or result["error"])
            for key in keys:
                self.fail(key, "run crashed")
            return
        for kind, params, name in result["reports"]:
            key = gate.reference_key(kind, params)
            path = out_dir / name
            if not path.exists():
                self.fail(key, "no report written")
                continue
            raw = path.read_bytes()
            if not self._same_bytes(key, raw):
                self.fail(key, "report bytes differ between repeats")
            ref = self.references.get(key)
            diffs = (["no reference report"] if ref is None
                     else gate.mismatches(ref, json.loads(raw)))
            if diffs:
                self.fail(key, "; ".join(diffs[:5]))
        for path in sorted(out_dir.glob("*.csv")):
            if not self._same_bytes(path.name, path.read_bytes()):
                self.fail(None, f"{path.name} differs between repeats")

    def probes(self, result: dict, out_dir: Path) -> None:
        outcomes = result.get("probes") or [{}] * len(PROBES)
        for i, (probe, got) in enumerate(zip(PROBES, outcomes)):
            op = "probe " + probe["config"]
            if "crash" in result or got.get("error"):
                self.fail(op, result.get("crash") or got["error"], timed=False)
                continue
            reports = sorted((out_dir / f"probe{i}").glob("*_*_*.json"))
            if got["exit"] != 0 or len(reports) != 1:
                self.fail(op, f"exit {got['exit']}, {len(reports)} reports",
                          timed=False)
                continue
            if probe["same_as"] is not None:
                ref = self.references[gate.reference_key(*probe["same_as"])]
                diffs = gate.mismatches(ref, json.loads(reports[0].read_text()))
                if diffs:
                    self.fail(op, "; ".join(diffs[:5]), timed=False)


def median(values):
    return statistics.median(values) if values else 0.0


def describe(name: str, values: list, unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (f"{name}: median {median(values):.6g} {unit} "
            f"(min {min(values):.6g}, max {max(values):.6g}, n={len(values)})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    if not (SRC / "dunkllab" / "__init__.py").is_file():
        die(f"no dunkllab source under {SRC}; run from a full checkout")
    template = BENCH / "workloads" / f"{args.workload}.json"
    ref_path = BENCH / "references" / f"{args.workload}.json"
    for path in (template, ref_path):
        if not path.is_file():
            die(f"missing {path}")

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = json.loads(template.read_text())
    keys = [gate.reference_key(c["kind"], c.get("params", {}))
            for c in config["checks"]]

    def config_for(i: int) -> str:
        """Repeat i runs its own seeded order of the checks."""
        cfg = dict(config, checks=list(config["checks"]))
        random.Random(args.seed * 1_000_003 + i).shuffle(cfg["checks"])
        path = out / "configs" / str(i) / f"{args.workload}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        return str(path)

    nproc = os.cpu_count() or 1
    workers = int(config.get("workers", nproc))
    blas = max(1, nproc // workers)
    children = Children(started + DEADLINE_S, blas)
    checker = Gate(json.loads(ref_path.read_text()))
    has_probes = args.workload == PROBED
    run_info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "workers": workers, "blas_threads": blas,
                "machine": machine_info(), **source_id()}

    # untimed, first: the probes also warm the page cache and byte-code
    if has_probes:
        configs = ",".join(str(BENCH / p["config"]) for p in PROBES)
        checker.probes(children.run("probe", configs, out / "probes"),
                       out / "probes")

    # repeats while one more fits in --seconds, leaving room for the
    # start-up-only children still needed; a traced run repeats (untimed,
    # traced) pairs
    modes = ("timed", "traced") if args.trace else ("timed",)
    results = {mode: [] for mode in modes}
    window = time.monotonic()
    while True:
        i = len(results["timed"])
        for mode in modes:
            rep_out = out / f"{mode}{i}"
            res = children.run(mode, config_for(i), rep_out)
            checker.repeat(res, rep_out, keys)
            results[mode].append(res)
            print(f"{mode} repeat {i}: " + json.dumps(
                {k: res.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb",
                                         "exit", "error", "crash")}))
        now = time.monotonic()
        per_repeat = (now - window) / (i + 1)
        setups = [r["setup_s"] for rs in results.values() for r in rs
                  if "setup_s" in r]
        missing = 0 if args.trace else SETUP_SAMPLES - len(setups) - 1
        tail = max(0, missing) * median(setups)
        if now - started + per_repeat + tail > args.seconds \
                or not checker.timed_ok:
            break
    if not args.trace:
        for i in range(SETUP_SAMPLES - len(setups)):
            res = children.run("setup", config_for(0), out / f"setup{i}")
            if "setup_s" in res:
                setups.append(res["setup_s"])

    timed = [r for r in results["timed"] if "wall_s" in r]
    walls = [r["wall_s"] for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    run_info["versions"] = next((r["versions"] for r in timed), None)
    print("run: " + json.dumps(run_info))

    attempted = len(keys) + (len(PROBES) if has_probes else 0)
    failed = len(checker.failed)
    print(describe("wall_s", walls, "s"))
    print(describe("setup_s", setups, "s"))
    print(describe("peak_rss_mb", rss, "MB"))
    print(f"failed_frac: {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")

    if args.trace:
        traced = [r for r in results["traced"] if "layers" in r]
        metrics = {}
        for name in traced[0]["layers"] if traced else ():
            metrics[name] = {"value": median([r["layers"][name]
                                              for r in traced]),
                             "unit": tracing.unit_of(name)}
        metrics["trace.overhead_s"] = {
            "value": median([r["wall_s"] for r in traced]) - median(walls),
            "unit": "s"}
        for name, m in metrics.items():
            print(f"{name}: {m['value']:.6g} {m['unit']}")
    else:
        metrics = {"wall_s": {"value": median(walls), "unit": "s"},
                   "setup_s": {"value": median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": median(rss), "unit": "MB"}}
    correct = checker.timed_ok and bool(walls)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
