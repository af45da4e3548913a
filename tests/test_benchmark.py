"""The benchmark's workloads at the size its own tests call tiny, run with
the package's tests: a change that removes or breaks a name the benchmark
calls or traces fails here. The benchmark's own tests are in
`perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH / "tests")]

import workloads  # noqa: E402
from test_perfbench import tiny  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_without_a_failed_operation(name, trace, tmp_path):
    result, details = workloads.run(tiny(name), seed=3, seconds=0.0, trace=trace, work=tmp_path)
    assert result["correct"], details["check_failures"]
    assert details["errors"] == []
    assert result["failed"] == 0 and details["known_faults"] == []
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
