"""The benchmark's workloads, why each exists, and how the seed makes the
inputs.

Every workload is a list of session texts.  The program receives only that
text and runs it exactly as ``abmod`` does with default flags.

Seeded workloads draw one fresco per slot.  A slot fixes the action, the
precision and a small space of presentations: lambda tuples from
`LAMBDAS` and units ``1`` or ``1 + c*b`` with ``c`` from `UNIT_COEFFS`.
Every lambda tuple keeps the product-formula roots ``-(l_j + j - k)``
negative, so every fresco is geometric.  The spaces are small on purpose:
`record_reference.py` runs every member once, checks the paper's laws on
it and stores its output, so any seed draws only inputs with a checked
reference.  Within a slot the members share one structure (classes mod Z
and nilpotent order), so a seed changes the numbers the program works on
but not the amount of work, and the run-to-run spread stays small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

LAMBDAS = (Q(1, 3), Q(1, 2), Q(4, 3), Q(3, 2), Q(7, 3), Q(5, 2), Q(10, 3),
           Q(7, 2))
UNIT_COEFFS = (Q(1), Q(-1), Q(2))

# A regular fresco on which higher_bernstein raises NotAStable (from
# quotient_module inside primitive_split).  Fixed, whatever the seed, so
# that a fix shows as a higher ok_ratio on deep_precision.
NOT_A_STABLE = (40, "higher_bernstein", (Q(3, 2), Q(1, 3)), (Q(1),))


def _rs(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def _unit(c: Q) -> str:
    if not c:
        return "1"
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    return f"1 {sign} b" if mag == 1 else f"1 {sign} {_rs(mag)}*b"


def fresco_text(lambdas, coeffs) -> str:
    """Session payload; the unit after the last factor is irrelevant, so it
    is always 1."""
    units = list(coeffs) + [Q(0)]
    return "fresco [" + ", ".join(f"({_rs(lam)}, {_unit(c)})"
                                  for lam, c in zip(lambdas, units)) + "]"


def is_geometric(lambdas) -> bool:
    k = len(lambdas)
    return all(-(lam + j - k) < 0 for j, lam in enumerate(lambdas, start=1))


@dataclass(frozen=True)
class Entry:
    """One generated binding: a fresco, its precision and the action."""
    prec: int
    action: str
    lambdas: tuple
    coeffs: tuple         # unit coefficient c of each inner factor

    @property
    def payload(self) -> str:
        return fresco_text(self.lambdas, self.coeffs)

    @property
    def key(self) -> str:
        return f"{self.prec}|{self.payload}|{self.action}"


@dataclass(frozen=True)
class Slot:
    action: str
    prec: int
    lambdas: tuple        # candidate lambda tuples, one structure
    coeffs: tuple         # per inner factor, the candidate unit coefficients

    def __post_init__(self):
        for lams in self.lambdas:
            if not is_geometric(lams) or not set(lams) <= set(LAMBDAS):
                raise ValueError(f"slot lambda tuple {lams} is not allowed")
            if len(self.coeffs) != len(lams) - 1:
                raise ValueError("one coefficient choice per inner factor")
        for cs in self.coeffs:
            if not set(cs) <= set(UNIT_COEFFS) | {Q(0)}:
                raise ValueError(f"unit coefficients {cs} are not allowed")

    def members(self):
        """Every entry the slot can draw."""
        return [Entry(self.prec, self.action, lams, cs)
                for lams in self.lambdas
                for cs in itertools.product(*self.coeffs)]

    def draw(self, rng: random.Random) -> "Entry":
        return Entry(self.prec, self.action, rng.choice(self.lambdas),
                     tuple(rng.choice(cs) for cs in self.coeffs))


def _lams(*texts):
    return tuple(tuple(Q(x) for x in t.split()) for t in texts)


NONZERO = UNIT_COEFFS     # a unit 1 + c*b
ONE = (Q(0),)             # the unit 1

# Why each workload exists.
#
# sessions: the three shipped session files.  Many cheap commands on rank-2
#   and rank-3 modules at precision 12-16 that recompute the same
#   saturation, Bernstein polynomial and semi-simple part across show
#   commands, so per-binding reuse shows here, and so does the overhead of
#   parsing, binding and formatting.  It has no seeded input.
# embed_search: show embed once per binding, rank 3 @16, rank 3 @32 and
#   rank 4 @16.  One embed makes a few hundred candidate rank computations
#   on short series through many lattice reductions, so the series kernel
#   and a cheaper rank screen show; with one command per binding, reuse
#   across commands cannot.
# deep_precision: show filtration once per binding, rank 2 and rank 3 @64,
#   and the fixed NOT_A_STABLE entry.  A few long products and inversions
#   with most of the time in eigen-elements and the linear solver: the
#   series kernel at long precision shows, the rank screen cannot.
SLOTS = {
    "embed_search": (
        Slot("embed", 16, _lams("7/2 5/2 3/2", "10/3 7/3 4/3"),
             (ONE, NONZERO)),
        Slot("embed", 32, _lams("10/3 5/2 1/3", "7/2 4/3 1/2"),
             (ONE, NONZERO)),
        Slot("embed", 16, _lams("7/2 5/2 3/2 1/3"), (ONE, NONZERO, ONE)),
    ),
    "deep_precision": (
        Slot("filtration", 64, _lams("4/3 1/3"), (NONZERO,)),
        Slot("filtration", 64, _lams("10/3 7/3 4/3"), (ONE, NONZERO)),
    ),
}

SESSION_NAMES = ("expansions_and_systems", "mixed_classes", "worked_theme")


def seeded_entries(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    entries = [slot.draw(rng) for slot in SLOTS[workload]]
    if workload == "deep_precision":
        entries.append(Entry(*NOT_A_STABLE))
    return entries


def session_text(entries) -> str:
    """One session per pass: precision, let and show for each entry."""
    lines = []
    for i, e in enumerate(entries):
        lines += [f"precision {e.prec}", f"let F{i} = {e.payload}",
                  f"show {e.action} F{i}"]
    return "\n".join(lines) + "\n"


def build(workload: str, seed: int, root: Path):
    """(texts, entries): the session texts of one pass and, for seeded
    workloads, the generated entries in session order."""
    if workload == "sessions":
        return [(root / "sessions" / f"{name}.abm").read_text()
                for name in SESSION_NAMES], []
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}")
    entries = seeded_entries(workload, seed)
    return [session_text(entries)], entries
