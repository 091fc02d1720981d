"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps dunkllab's functions and methods by name and
reads their leading arguments to size each call.  A renamed or deleted name
makes ``install()`` raise; a moved leading argument makes the traced call
raise.  This test installs the tracer in a fresh interpreter and runs one
cheap registry check under it, so both show up in the tier-1 suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_CHECK = """
import json
import dunkllab
import tracing
from dunkllab import WeightedContext, rank1, run_check

tracer = tracing.install()
report = run_check(WeightedContext(rank1(0.5)), "kernel-semigroup")
metrics = tracing.layer_metrics(tracer, {"cpu_s": 0.0, "report_bytes": 0})
print(json.dumps({"passed": report.passed,
                  "grid_calls": metrics["transform.grid.calls"],
                  "grid_macs": metrics["transform.grid.macs"]}))
"""


def test_tracer_installs_and_traces_a_registry_check():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-c", TRACED_CHECK], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["passed"]
    # q_{t/2}, q_t and the convolution are grid inverses
    assert result["grid_calls"] > 0
    assert result["grid_macs"] > 0
