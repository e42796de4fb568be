"""Run one workload in this interpreter and print its measurements.

Started by ``run.py`` in a fresh interpreter per run.  It starts the speed
probe of ``clock.py``, imports abmod from the checkout's ``src``, builds
the inputs from the seed and prints ``ready`` with the probe's readings;
that line ends set-up.  With ``--setup-only`` it stops there.  Otherwise it
runs passes over the workload's sessions for ``--seconds`` seconds, one
command after the other (a closed loop with one caller), checks every
output outside the timed region and prints one JSON line.  Times are
reference seconds (see ``clock.py``).

With ``--trace 1`` the time is split: untraced passes first, then passes
with the wrappers of ``tracer.py`` installed.  The per-layer numbers come
from the traced passes and their ratio to the untraced ones is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


class StampedCommands(list):
    """Command list that stamps the clock each time the session loop takes
    the next command, and once more when the loop ends; consecutive stamps
    bound one command, measured without touching the program."""

    def __iter__(self):
        self.stamps = []
        for cmd in list.__iter__(self):
            self.stamps.append(time.perf_counter())
            yield cmd
        self.stamps.append(time.perf_counter())


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import abmod
    if Path(abmod.__file__).resolve().parent != ROOT / "src" / "abmod":
        raise SystemExit(f"abmod imported from {abmod.__file__}, "
                         "not from this checkout")
    from abmod import session
    return session


def run_pass(session, texts):
    """One pass over the workload; returns its wall interval, the wall
    interval of each let and show command, and the reports."""
    commands, reports = [], []
    start = time.perf_counter()
    for text in texts:
        parsed = session.parse_session(text)
        cmds = parsed.commands = StampedCommands(parsed.commands)
        report = session.run_session(parsed)
        report.text = report.to_text()
        reports.append(report)
        if len(cmds.stamps) != len(cmds) + 1:
            raise RuntimeError("run_session did not iterate its commands once")
        commands += [(a, b) for cmd, a, b in
                     zip(cmds, cmds.stamps, cmds.stamps[1:])
                     if not isinstance(cmd, session.PrecisionCommand)]
    return (start, time.perf_counter()), commands, reports


def run_passes(session, texts, seconds):
    """At least one pass, and passes until *seconds* have gone by."""
    passes, commands, first = [], [], None
    deadline = time.perf_counter() + seconds
    while True:
        interval, cmds, reports = run_pass(session, texts)
        passes.append(interval)
        commands += cmds
        if first is None:
            first = reports
        elif [r.text for r in reports] != [r.text for r in first]:
            raise RuntimeError("a pass produced different output")
        if time.perf_counter() >= deadline:
            return passes, commands, first


def end_to_end(times, latencies, attempted, errors, rss_mb):
    """End-to-end metrics: name -> (value, unit, samples)."""
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {
        "total_s": (statistics.median(times), "s", len(times)),
        "cmd_p50_s": (statistics.median(latencies), "s", len(latencies)),
        "cmd_p90_s": (p90, "s", sum(1 for x in latencies if x > p90)),
        "ok_ratio": (1 - errors / attempted, "ratio", attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(per_pass, factors):
    """Counts from the first traced pass; times as the median over traced
    passes, each scaled to reference seconds by its pass's factor."""
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(p[name][0] * f
                                      for p, f in zip(per_pass, factors))
        out[name] = (value, unit, len(per_pass) if unit == "s" else 1)
    return out


def main(argv=None) -> int:
    probe = SpeedProbe()
    probe.start()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    session = import_program()
    import workloads
    texts, entries = workloads.build(args.workload, args.seed, ROOT)
    print("ready %r %r" % probe.summary(), flush=True)
    if args.setup_only:
        probe.stop()
        return 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    passes, commands, reports = run_passes(session, texts, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        import tracer
        layers, traced = tracer.traced_passes(
            lambda: run_pass(session, texts), seconds, args.workload,
            OUT / f"spans-{args.workload}-{args.seed}.json.gz")
    probe.stop()

    times = [probe.seconds(a, b) for a, b in passes]
    latencies = [probe.seconds(a, b) for a, b in commands]
    import checks
    outcome = checks.check(args.workload, reports, entries, ROOT, HERE)
    result = {
        "problems": outcome.problems,
        "attempted": outcome.attempted * len(passes),
        "failed": outcome.failed * len(passes),
        "metrics": end_to_end(times, latencies, outcome.attempted,
                              outcome.errors, rss_mb),
        "wall_total_s": statistics.median(b - a for a, b in passes),
    }
    if args.trace:
        traced_s = [probe.seconds(a, b) for a, b in traced]
        result["layers"] = per_layer(
            layers, [t / (b - a) for t, (a, b) in zip(traced_s, traced)])
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(times), "ratio",
            len(traced_s))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
