"""Smoke test of the benchmark itself.

Runs every workload of ``bench/workloads.py`` (those ``BENCHMARK.json``
lists and ``simulate-dump``, which it does not) at the reduced ``smoke``
size, untraced and traced, with all output checks and the replay check,
and asserts that every named metric is present and finite.  From the root
of the checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, os.path.join(ROOT, "bench"))
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int, record: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke",
         "--record", record],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_present_and_finite(workload, trace, tmp_path):
    result = _run(workload, trace, str(tmp_path / "runs.jsonl"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"]), metric["name"]


def test_compare_reads_recorded_runs(tmp_path):
    record = str(tmp_path / "runs.jsonl")
    _run("simulate-dump", 0, record)
    _run("simulate-dump", 0, record)
    proc = subprocess.run(
        [sys.executable, "bench/compare.py", record, record],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().splitlines()[1:]
    assert len(rows) == len(SPEC["end_to_end"])
    assert all(row.endswith(("unchanged", "unresolved")) for row in rows)
