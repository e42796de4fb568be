"""The noncommutative algebra of operators in a and b with ab - ba = b^2.

Operators are kept in right-normal form: a finite sum of b^q * P_q(a) with
q below the b-precision and P_q a polynomial in a with rational
coefficients.  Only b is truncated; the a-degree is exact and guarded by a
hard bound so runaway rewriting fails loudly instead of silently.

The workhorse identity is a * b^q = b^q * (a + q*b), which gives

    a . (b^q P(a)) = b^q (a P(a)) + q b^(q+1) P(a)
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ADegreeExceeded
from .ratpoly import pnorm, padd, pscale, pdeg
from .series import (DEFAULT_PREC, TruncSeries, power_factor, rat, rat_str,
                     render_terms)

DEFAULT_A_BOUND = 64


class AbOperator:
    """Element of the (a, b)-operator algebra in right-normal form."""

    __slots__ = ("terms", "prec", "a_bound")

    def __init__(self, terms, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        clean = {}
        for q, poly in terms.items():
            if q >= prec or q < 0:
                continue
            poly = pnorm(poly)
            if pdeg(poly) < 0:
                continue
            if pdeg(poly) > a_bound:
                raise ADegreeExceeded(
                    f"a-degree {pdeg(poly)} exceeds the bound {a_bound}")
            clean[q] = poly
        self.terms = clean
        self.prec = prec
        self.a_bound = a_bound

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        return cls({}, prec, a_bound)

    @classmethod
    def one(cls, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        return cls({0: (Fraction(1),)}, prec, a_bound)

    @classmethod
    def gen_a(cls, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        return cls({0: (Fraction(0), Fraction(1))}, prec, a_bound)

    @classmethod
    def gen_b(cls, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        return cls({1: (Fraction(1),)}, prec, a_bound)

    @classmethod
    def scalar(cls, c, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND):
        return cls({0: (rat(c),)}, prec, a_bound)

    @classmethod
    def from_series(cls, s: TruncSeries, a_bound=DEFAULT_A_BOUND):
        return cls({q: (c,) for q, c in enumerate(s.coeffs) if c},
                   s.prec, a_bound)

    # -- algebra --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _promote(other, self)
        if other is None:
            return NotImplemented
        prec = min(self.prec, other.prec)
        terms = {q: p for q, p in self.terms.items() if q < prec}
        for q, p in other.terms.items():
            if q < prec:
                terms[q] = padd(terms.get(q, (Fraction(0),)), p)
        return AbOperator(terms, prec, min(self.a_bound, other.a_bound))

    __radd__ = __add__

    def __neg__(self):
        return AbOperator({q: pscale(p, -1) for q, p in self.terms.items()},
                          self.prec, self.a_bound)

    def __sub__(self, other):
        other = _promote(other, self)
        if other is None:
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AbOperator":
        c = rat(c)
        if c == 0:
            return AbOperator.zero(self.prec, self.a_bound)
        return AbOperator({q: pscale(p, c) for q, p in self.terms.items()},
                          self.prec, self.a_bound)

    def _lmul_a(self) -> "AbOperator":
        """Left-multiply by a:  a . b^q P(a) = b^q (aP)(a) + q b^(q+1) P(a)."""
        terms = {}
        for q, poly in self.terms.items():
            shifted = (Fraction(0),) + poly          # a * P(a)
            cur = terms.get(q)
            terms[q] = padd(cur, shifted) if cur else pnorm(shifted)
            if q:
                bump = pscale(poly, q)
                cur = terms.get(q + 1)
                terms[q + 1] = padd(cur, bump) if cur else bump
        return AbOperator(terms, self.prec, self.a_bound)

    def _lmul_bpow(self, q: int) -> "AbOperator":
        return AbOperator({q0 + q: p for q0, p in self.terms.items()},
                          self.prec, self.a_bound)

    def __mul__(self, other):
        other = _promote(other, self)
        if other is None:
            return NotImplemented
        prec = min(self.prec, other.prec)
        bound = min(self.a_bound, other.a_bound)
        acc = AbOperator.zero(prec, bound)
        for q, poly in sorted(self.terms.items()):
            # b^q * P(a) * other, with P applied by Horner on the left
            part = AbOperator.zero(prec, bound)
            for c in reversed(poly):
                part = part._lmul_a()
                if c:
                    part = part + other.scale(c)
            acc = acc + part._lmul_bpow(q)
        return acc

    def __rmul__(self, other):
        other = _promote(other, self)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        acc = AbOperator.one(self.prec, self.a_bound)
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        other = _promote(other, self)
        if other is None:
            return NotImplemented
        prec = min(self.prec, other.prec)
        qs = set(q for q in self.terms if q < prec) | set(
            q for q in other.terms if q < prec)
        for q in qs:
            if self.terms.get(q, (Fraction(0),)) != other.terms.get(q, (Fraction(0),)):
                return False
        return True

    __hash__ = None

    # -- conversions ------------------------------------------------------

    def to_left_form(self):
        """Regroup as sum of T_m(b) a^m; returns [(m, TruncSeries)] descending."""
        by_m = {}
        for q, poly in self.terms.items():
            for m, c in enumerate(poly):
                if c:
                    by_m.setdefault(m, {})[q] = c
        out = []
        for m in sorted(by_m, reverse=True):
            coeffs = [Fraction(0)] * self.prec
            for q, c in by_m[m].items():
                coeffs[q] = c
            out.append((m, TruncSeries(coeffs, self.prec)))
        return out

    def render(self) -> str:
        return render_terms((c, power_factor("b", q) + power_factor("a", m))
                            for q, poly in sorted(self.terms.items())
                            for m, c in reversed(list(enumerate(poly))) if c)

    def __repr__(self):
        return f"AbOperator({self.render()}; prec={self.prec})"

    def to_json(self):
        return [{"q": q, "poly": [rat_str(c) for c in self.terms[q]]}
                for q in sorted(self.terms)]


def _promote(x, like: AbOperator):
    if isinstance(x, AbOperator):
        return x
    if isinstance(x, (int, Fraction)):
        return AbOperator.scalar(x, like.prec, like.a_bound)
    if isinstance(x, TruncSeries):
        return AbOperator.from_series(x, like.a_bound)
    return None


def op_normalize(word, prec=DEFAULT_PREC, a_bound=DEFAULT_A_BOUND) -> AbOperator:
    """Right-normal form of a word in {'a', 'b', series, scalars}."""
    acc = AbOperator.one(prec, a_bound)
    for letter in word:
        if letter == "a":
            op = AbOperator.gen_a(prec, a_bound)
        elif letter == "b":
            op = AbOperator.gen_b(prec, a_bound)
        elif isinstance(letter, TruncSeries):
            op = AbOperator.from_series(letter, a_bound)
        elif isinstance(letter, (int, Fraction, str)):
            op = AbOperator.scalar(rat(letter), prec, a_bound)
        elif isinstance(letter, AbOperator):
            op = letter
        else:
            raise TypeError(f"unknown generator {letter!r}")
        acc = acc * op
    return acc
