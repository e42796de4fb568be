"""abmod benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

``sessions`` runs the three shipped session files, ``embed_search`` runs
``show embed`` on seeded frescos, ``deep_precision`` runs ``show
filtration`` at precision 64 plus one fixed entry that fails today (see
``workloads.py`` for why each exists).  Each run of a workload is one
closed loop -- one caller, one thread, each command waits for the one
before -- in its own fresh interpreter (``worker.py``), which also checks
every output against the golden files or the recorded references
(``checks.py``).

Every time is in reference seconds: wall time converted to a fixed CPU
speed by the probe of ``clock.py``, because the cores of a shared host
change speed by tens of percent within seconds.  The table also shows the
median wall time of a pass.  Set-up is timed from process start to the
worker's ``ready`` line: interpreter start, imports and input generation.
The worker is started ``SETUP_RUNS`` extra times, set-up only, and
``setup_s`` is the median.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from ``tracer.py``, whose spans go to
``perfbench/out/``.  A table with units and sample counts is printed
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the let
and show commands run in the timed passes and ``failed`` those whose
output broke a check; the program's own error rate is ``ok_ratio``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REF_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sessions", "embed_search", "deep_precision")
SETUP_RUNS = 9
TIMEOUT_S = 170


def spawn(args):
    """Start the worker; returns (process, set-up time in reference
    seconds): the wall time to its ready line, less the speed probe's own
    time, scaled by the probe's median reading during set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().split()
        wall = time.perf_counter() - start
        if len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"worker did not start: {line!r}")
        median, probe_total = float(line[1]), float(line[2])
        return proc, (wall - probe_total) * REF_KERNEL_S / median
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def finish(proc, deadline):
    """Wait for the worker and return its last output line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.strip().splitlines()[-1] if out.strip() else ""


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(SETUP_RUNS):
        proc, dt = spawn(common + ["--seconds", "0", "--setup-only"])
        finish(proc, deadline)
        setups.append(dt)
    proc, dt = spawn(common + ["--seconds", str(seconds),
                               "--trace", str(trace)])
    setups.append(dt)
    result = json.loads(finish(proc, deadline))
    result["metrics"]["setup_s"] = (statistics.median(setups), "s",
                                    len(setups))
    return result


def print_table(name, rows):
    print(f"== {name}")
    for metric, (value, unit, n) in rows.items():
        print(f"  {metric:36s} {value:14.6g} {unit:6s} n={n}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "abmod" / "__init__.py").is_file():
        print(f"error: no abmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        rows = result["layers"] if args.trace else result["metrics"]
        print_table(name, rows)
        print(f"  (median pass wall time {result['wall_total_s']:.6g} s)")
        for problem in result["problems"]:
            print(f"  check failed: {problem}")
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: {"value": v, "unit": u}
                        for m, (v, u, _) in rows.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
