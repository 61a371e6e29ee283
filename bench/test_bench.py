"""Smoke test of the benchmark itself: python3 -m pytest -q bench/test_bench.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last line carries every metric BENCHMARK.json names, with its unit,
and that no operation failed its output check or digest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_traced_layers_add_up_to_the_operation_wall_time():
    _, result = _run("library_enumerate", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(
        v for k, v in metrics.items()
        if k.endswith("_s") and not k.startswith(("setup.", "trace."))
    )
    assert layers == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_refuses_to_run_without_the_sources():
    # a copy of the benchmark alone, with no src/ beside it
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search_sampled",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
