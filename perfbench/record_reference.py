"""Record the reference output of every input a seeded workload can draw.

Run from the repository root:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Each slot member runs as its own session (precision, let, show) with
default flags, under the binding name it gets in the workload.  A member
whose output breaks a law is not recorded: the script stops with an error.
A member whose command fails is recorded as that failure, with no output.
Writes ``perfbench/reference/<workload>.json`` and prints each member's
time in reference seconds, which shows how even the work across a slot is.
"""

from __future__ import annotations

import json
import sys
import time

import worker
from clock import SpeedProbe

session = worker.import_program()

import checks      # noqa: E402  (needs abmod on the path)
import workloads   # noqa: E402


def record(workload):
    slots = workloads.SLOTS[workload]
    jobs = [(i, m) for i, slot in enumerate(slots) for m in slot.members()]
    if workload == "deep_precision":
        jobs.append((len(slots), workloads.Entry(*workloads.NOT_A_STABLE)))
    ref, timings = {}, []
    probe = SpeedProbe()
    probe.start()
    for i, entry in jobs:
        text = (f"precision {entry.prec}\nlet F{i} = {entry.payload}\n"
                f"show {entry.action} F{i}\n")
        start = time.perf_counter()
        report = session.run_session(session.parse_session(text))
        timings.append((start, time.perf_counter()))
        let, show = report.entries[1], report.entries[2]
        broken = checks.laws(entry, show)
        if entry.action == "embed" and "error" not in show:
            broken += checks.embedding_laws(entry)
        if broken or "error" in let:
            raise SystemExit(f"{entry.key}: {broken or let['error']}")
        ref[entry.key] = {"let": let["text"], "show": checks.outcome_of(show)}
    probe.stop()
    for (i, entry), (a, b) in zip(jobs, timings):
        print(f"{probe.seconds(a, b):8.3f} s  slot {i}  {entry.key}  "
              f"{ref[entry.key]['show'].get('error', 'ok')}")
    path = worker.HERE / "reference" / f"{workload}.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(workloads.SLOTS):
        record(name)
