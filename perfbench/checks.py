"""Output checks, run after the timed passes.

``sessions`` must reproduce the golden files byte for byte.  A seeded
workload must reproduce, for every command that succeeded when the
reference was recorded, the recorded output; a command that failed then
has no recorded output and, should it succeed now, only has to pass the
laws.  Laws checked on every run: the characteristic Bernstein polynomial
of each fresco equals the product formula, filtration step ranks increase
strictly to the rank, and the higher Bernstein polynomials multiply back
to the total.  Embeddings were checked (equivariance, full column rank)
when the reference was recorded; an embedding with no recorded output is
recomputed and checked here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from abmod import (FrescoPresentation, TruncSeries, bernstein_polynomial,
                   bernstein_via_formula, embed_into_xi,
                   fresco_from_presentation, lattice_reduce)
from abmod.session import Report

import workloads


@dataclass
class Outcome:
    attempted: int = 0      # let and show commands in one pass
    errors: int = 0         # of those, raised an error or broke a law
    failed: int = 0         # of those, broke a check
    problems: list = field(default_factory=list)

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)


def check(workload, reports, entries, root: Path, here: Path) -> Outcome:
    if workload == "sessions":
        return check_sessions(reports, root / "tests" / "golden")
    ref = json.loads((here / "reference" / f"{workload}.json").read_text())
    return check_seeded(reports[0], entries, ref)


def _blocks(text):
    """Split a text report at its '> command' lines."""
    blocks = []
    for line in text.splitlines(keepends=True):
        if line.startswith("> "):
            blocks.append("")
        blocks[-1] += line
    return blocks


def check_sessions(reports, golden: Path) -> Outcome:
    out = Outcome()
    for name, report in zip(workloads.SESSION_NAMES, reports):
        commands = [e for e in report.entries
                    if not e["command"].startswith("precision ")]
        out.attempted += len(commands)
        out.errors += sum("error" in e for e in commands)
        want = _blocks((golden / f"{name}.txt").read_text())
        got = [Report(entries=[e]).to_text() for e in report.entries]
        bad = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        if bad or report.text != "".join(want):
            out.failed += bad or 1
            out.problems.append(f"{name}: text differs from the golden file "
                                f"in {bad} command(s)")
        if name == "worked_theme" and \
                report.to_json() != (golden / f"{name}.json").read_text():
            out.fail(f"{name}: JSON differs from the golden file")
    return out


def _fresco(entry):
    lams, coeffs = entry.lambdas, list(entry.coeffs) + [0]
    units = [(lam, TruncSeries([1, c], entry.prec))
             for lam, c in zip(lams, coeffs)]
    pres = FrescoPresentation(units, entry.prec)
    return pres, fresco_from_presentation(pres, entry.prec)


def laws(entry, show) -> list:
    """Law violations of one command's outcome; [] when it holds them."""
    pres, fr = _fresco(entry)
    broken = []
    formula, _ = bernstein_via_formula(pres)
    if bernstein_polynomial(fr.module, mode="characteristic") != formula:
        broken.append("characteristic Bernstein polynomial != product formula")
    if "error" in show:
        return broken
    result = show["result"]
    if entry.action == "filtration":
        ranks = result["step_ranks"]
        if any(a >= b for a, b in zip(ranks, ranks[1:])) or \
                not ranks or ranks[-1] != fr.module.rank:
            broken.append(f"filtration step ranks {ranks} do not increase "
                          f"strictly to {fr.module.rank}")
    if entry.action == "higher_bernstein" and not result["product_check"]:
        broken.append("higher Bernstein product != total")
    return broken


def embedding_laws(entry) -> list:
    _, fr = _fresco(entry)
    emb = embed_into_xi(fr.module)
    broken = []
    if not emb.check_equivariance():
        broken.append("embedding is not equivariant")
    cols = [emb.target.element(tuple(emb.matrix[t][j]
                                     for t in range(emb.target.rank)))
            for j in range(fr.module.rank)]
    if lattice_reduce(cols, host=emb.target).rank != fr.module.rank:
        broken.append("embedding does not have full column rank")
    return broken


def outcome_of(entry_json):
    """The recorded form of a show command's outcome."""
    if "error" in entry_json:
        return {"error": entry_json["error"]["type"]}
    return {"text": entry_json["text"],
            "diagnostics": entry_json.get("diagnostics", [])}


def check_seeded(report, entries, ref) -> Outcome:
    out = Outcome()
    by_command = [e for e in report.entries
                  if not e["command"].startswith("precision ")]
    if len(by_command) != 2 * len(entries):
        out.fail(f"expected {2 * len(entries)} commands, "
                 f"got {len(by_command)}")
        return out
    for i, entry in enumerate(entries):
        let, show = by_command[2 * i], by_command[2 * i + 1]
        out.attempted += 2
        want = ref.get(entry.key)
        if want is None:
            out.fail(f"no reference for {entry.key}")
            continue
        if let.get("text") != want["let"]:
            out.fail(f"{entry.key}: let output changed")
        got = outcome_of(show)
        broken = laws(entry, show)
        if "error" in want["show"]:
            if "error" not in got and entry.action == "embed":
                broken += embedding_laws(entry)
        elif got != want["show"]:
            out.fail(f"{entry.key}: output changed from the reference")
        if broken:
            out.fail(f"{entry.key}: " + "; ".join(broken))
        if "error" in got or broken:
            out.errors += 1
    return out
