"""Cyclic modules over the operator algebra: presentations, generated
sub-modules, the product formula for their Bernstein polynomials, and the
exact-sequence calculus.

A presentation is an ordered factor list (a - l_1 b) S_1 ... S_{k-1}
(a - l_k b); the quotient by the right ideal it generates is a free rank-k
module on the classes of 1, a, ..., a^(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAUnit, PrecisionExhausted
from .lattices import (Lattice, lattice_reduce, normal_hull,
                       quotient_module, sub_module_structure)
from .modules import AbModule, ModuleElement, module_from_left_form
from .operators import AbOperator, DEFAULT_A_BOUND
from .ratpoly import RationalPolynomial
from .saturation import bernstein_polynomial
from .series import DEFAULT_PREC, TruncSeries, rat, rat_str


class FrescoPresentation:
    """Ordered factors (lambda_j, S_j); the unit after the last factor is
    optional and irrelevant (it does not change the right ideal)."""

    __slots__ = ("factors",)

    def __init__(self, factors, prec=DEFAULT_PREC):
        clean = []
        for item in factors:
            if isinstance(item, (tuple, list)):
                lam = rat(item[0])
                unit = item[1] if len(item) > 1 and item[1] is not None else None
            else:
                lam, unit = rat(item), None
            if unit is None:
                unit = TruncSeries.one(prec)
            elif not isinstance(unit, TruncSeries):
                unit = TruncSeries.constant(rat(unit), prec)
            if not unit.is_unit():
                raise NotAUnit(
                    f"inner factor after lambda={rat_str(lam)} is not a unit")
            clean.append((lam, unit))
        if not clean:
            raise ValueError("a presentation needs at least one factor")
        self.factors = tuple(clean)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def lambdas(self):
        return tuple(lam for lam, _ in self.factors)

    def operator(self, prec=None) -> AbOperator:
        """The product of the factors (a - lambda_j b) U_j, the last unit
        left out, at precision prec (by default the least unit precision)
        and with the a-degree bound max(2k + 4, DEFAULT_A_BOUND)."""
        p = prec if prec is not None else min(u.prec for _, u in self.factors)
        bound = max(2 * self.rank + 4, DEFAULT_A_BOUND)
        a = AbOperator.gen_a(p, bound)
        b = AbOperator.gen_b(p, bound)
        acc = None
        k = self.rank
        for idx, (lam, unit) in enumerate(self.factors):
            factor = a - b.scale(lam)
            acc = factor if acc is None else acc * factor
            if idx < k - 1:
                acc = acc * AbOperator.from_series(unit.truncate(p), bound)
        return acc

    def render(self) -> str:
        parts = []
        for lam, unit in self.factors:
            parts.append(f"({rat_str(lam)}, {unit.render()})")
        return "[" + ", ".join(parts) + "]"

    def to_json(self):
        return [{"lambda": rat_str(lam), "unit": unit.to_json()}
                for lam, unit in self.factors]


@dataclass
class Fresco:
    """A cyclic module: its structure, a generator, and provenance data."""

    module: AbModule
    generator: ModuleElement | None
    presentation: FrescoPresentation | None = None
    left_form: tuple | None = None          # ((m, TruncSeries), ...) descending
    lattice: Lattice | None = None          # span inside a host module, if any
    host: AbModule | None = None

    def bernstein(self) -> RationalPolynomial:
        return bernstein_polynomial(self.module, mode="characteristic")


def fresco_from_presentation(p: FrescoPresentation, prec=DEFAULT_PREC) -> Fresco:
    """Companion-form module of the right ideal generated by the presentation."""
    op = p.operator(prec=prec)
    left = op.to_left_form()
    lead_m, lead_t = left[0]
    if lead_m != p.rank or not lead_t.is_unit():
        raise NotAUnit("presentation did not produce a unit leading series")
    module = module_from_left_form(left, prec=prec)
    return Fresco(module=module, generator=module.basis(0),
                  presentation=p, left_form=tuple(left))


def bernstein_via_formula(
        p: FrescoPresentation) -> tuple[RationalPolynomial, tuple]:
    """The product (x + l_j + j - k) over the factor list, with the
    violations: returns (polynomial, violations).

    The violations are the numbers -(l_j + j - k) that fail to be negative
    rationals; they do not stop the computation.
    """
    k = p.rank
    roots = {}
    violations = []
    for j, lam in enumerate(p.lambdas(), start=1):
        r = -(lam + j - k)
        roots[r] = roots.get(r, 0) + 1
        if r >= 0:
            violations.append(r)
    poly = RationalPolynomial.from_roots(sorted(roots.items()))
    poly_violations = tuple(violations)
    return poly, poly_violations


def generated_submodule(host: AbModule, x: ModuleElement) -> Fresco:
    """The cyclic sub-module generated by x, with its minimal monic relation.

    Iterates powers of a on x until the lattice span absorbs the next power;
    the coordinates of that power against the generator chain give the left
    form of the relation (a^r + sum T_m a^m) x = 0.  The search stops at
    r = host.rank.
    """
    if x.is_zero_known():
        raise ValueError("the zero element does not generate a sub-module")
    gens = [x]
    lat = lattice_reduce(gens, host=host, track=True)
    y = x
    for m in range(1, host.rank + 1):
        y = y.act_a()
        coords = lat.generator_coords(y)
        if coords is not None:
            left = [(m, TruncSeries.one(host.prec))]
            for i in range(m - 1, -1, -1):
                left.append((i, -coords[i]))
            module = module_from_left_form(left, prec=host.prec)
            return Fresco(module=module, generator=module.basis(0),
                          left_form=tuple(left), lattice=lat, host=host)
        gens.append(y)
        lat = lattice_reduce(gens, host=host, track=True)
    raise PrecisionExhausted(
        f"no monic relation of degree <= {host.rank} found for the generator")


@dataclass
class SplitReport:
    """Outcome of splitting a fresco along a generated sub-module."""

    b_total: RationalPolynomial
    b_sub: RationalPolynomial
    b_quot: RationalPolynomial
    q: int
    shifted_down_holds: bool      # B_total(x) == B_sub(x - q) * B_quot(x)
    shifted_up_holds: bool        # B_total(x) == B_sub(x + q) * B_quot(x)
    hull_equals_span: bool

    def to_json(self):
        return {
            "B_F": self.b_total.to_json(),
            "B_sub": self.b_sub.to_json(),
            "B_quot": self.b_quot.to_json(),
            "q": self.q,
            "identity_shift_down": self.shifted_down_holds,
            "identity_shift_up": self.shifted_up_holds,
            "hull_equals_span": self.hull_equals_span,
        }


def jh_split(f: Fresco, x: ModuleElement):
    """Split f along the normal hull of the sub-module generated by x.

    Returns (sub, quot, report).  The report evaluates both candidate
    exact-sequence identities: with q = rank of the quotient, the variant
    B_sub(x - q) * B_quot(x) and the variant B_sub(x + q) * B_quot(x) are
    each compared against B_F, and the outcome of both comparisons is
    recorded rather than asserted.
    """
    host = f.module
    span_f = generated_submodule(host, x)
    hull = normal_hull(span_f.lattice)
    hull_is_span = (hull.rank == span_f.lattice.rank and hull.eq(span_f.lattice))

    if hull.rank == host.rank:
        sub_module = host
        sub = Fresco(module=host, generator=f.generator, lattice=hull, host=host)
        quot_module = AbModule([], prec=host.prec)
        quot = Fresco(module=quot_module, generator=None, lattice=None, host=host)
    else:
        sub_struct = sub_module_structure(hull)
        sub_gen = None
        if hull_is_span:
            sub_gen = sub_struct.to_sub_coords(x)
        sub = Fresco(module=sub_struct.module, generator=sub_gen,
                     lattice=hull, host=host)
        quotient = quotient_module(host, hull)
        quot_gen = quotient.project(f.generator)
        quot = Fresco(module=quotient.module, generator=quot_gen, host=host)

    b_total = bernstein_polynomial(host, mode="characteristic")
    b_sub = bernstein_polynomial(sub.module, mode="characteristic")
    b_quot = bernstein_polynomial(quot.module, mode="characteristic")
    q = quot.module.rank
    down = b_sub.shift(q).mul(b_quot)    # B_sub(x - q): roots move up by q
    up = b_sub.shift(-q).mul(b_quot)     # B_sub(x + q): roots move down by q
    report = SplitReport(
        b_total=b_total, b_sub=b_sub, b_quot=b_quot, q=q,
        shifted_down_holds=(down == b_total),
        shifted_up_holds=(up == b_total),
        hull_equals_span=hull_is_span,
    )
    return sub, quot, report
