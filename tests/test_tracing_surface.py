"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps dunkllab's functions and methods by name and
reads their leading arguments to size each call.  A renamed or deleted name
makes ``install()`` raise; a moved leading argument makes the traced call
raise.  This test installs the tracer in a fresh interpreter and runs one
cheap registry check under it, so both show up in the tier-1 suite.
"""

import json
from pathlib import Path

import pytest

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


@pytest.mark.fresh_python(TRACED_CHECK, ROOT / "src", ROOT / "perfbench")
def test_tracer_installs_and_traces_a_registry_check(fresh_python):
    assert fresh_python.returncode == 0, fresh_python.stderr
    result = json.loads(fresh_python.stdout.strip().splitlines()[-1])
    assert result["passed"]
    # q_{t/2}, q_t and the convolution are grid inverses
    assert result["grid_calls"] > 0
    assert result["grid_macs"] > 0
