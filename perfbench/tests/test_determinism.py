"""The benchmark's own tests: traced counts repeat exactly on one seed,
every wrapper is reached by some workload, untraced outputs pass the
checks, and the benchmark refuses to run without the program.

Slow (a few minutes, one pass per phase):

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402

SEED = 3


def worker(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result):
    return {name: value for name, (value, unit, _) in result["layers"].items()
            if unit != "s" and name != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", sorted(tracer.IDLE))
def test_traced_counts_repeat_and_outputs_check(workload):
    untraced = worker(workload, 0)
    assert untraced["problems"] == []
    assert untraced["failed"] == 0
    first, second = worker(workload, 1), worker(workload, 1)
    assert counts(first) == counts(second)
    assert first["problems"] == second["problems"] == []


def test_every_wrapper_reached_by_some_workload():
    # a traced run fails when a wrapper outside its IDLE set sees no call
    assert not set.intersection(*tracer.IDLE.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sessions",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
