"""Smoke test for the benchmark: one tiny round of every workload, untraced and traced.

Run with ``python3 -m pytest bench/test_smoke.py``.  It checks that every
op's output passes the independent checks, that only realize --m 8 fails,
and that the metrics printed are exactly those BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke", "--seed", "7",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in DECLARED["workloads"])
    units = {m["name"]: m["unit"] for m in DECLARED[kind]}
    for name, result in results.items():
        assert result["correct"], name
        assert result["attempted"] >= 8, name
        assert result["failed"] == (1 if name == "certify-cold" else 0), name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units, name
