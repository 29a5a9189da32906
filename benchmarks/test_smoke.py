"""Smoke tests of the benchmark itself: every workload once at tiny sizes.

    python3 -m pytest benchmarks/test_smoke.py -q

They check the harness, not the speed of the machine: each run must be
correct and emit every metric BENCHMARK.json names, with its unit, and
the fixture generator must be deterministic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import workloads  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        printed = {line.split()[0] for line in proc.stdout.splitlines() if " = " in line}
        assert set(layers.PER_LAYER) <= printed


def _read_all(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_fixtures_are_byte_identical_for_a_seed(tmp_path):
    first, again, other = (tmp_path / name for name in ("first", "again", "other"))
    for directory, seed in ((first, 3), (again, 3), (other, 4)):
        directory.mkdir()
        workloads.make_fixtures(seed, "smoke", str(directory))
    assert _read_all(first) == _read_all(again)
    assert _read_all(first)["blobs-big.csv"] != _read_all(other)["blobs-big.csv"]
