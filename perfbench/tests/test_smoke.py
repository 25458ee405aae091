"""Smoke runs of the benchmark at tiny sizes: every named metric is printed.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int, seconds: float = 0.2) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_known_defects_show_on_audit_small():
    """Known defects are counted as failures, and they alone keep the run correct."""
    result = run("audit-small", 0)
    assert result["correct"] is True
    assert result["failed"] > 0
    assert result["metrics"]["verified_rate"]["value"] < 1.0


def test_counts_depend_on_the_seed_alone():
    """attempted and failed count distinct instances, not instances x passes."""
    short, long = run("audit-small", 0), run("audit-small", 0, seconds=2.0)
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_exits_nonzero_without_the_package():
    bare = ROOT / "perfbench" / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
