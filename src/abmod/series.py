"""Exact rational scalars and truncated formal power series in b.

Coefficients are ``fractions.Fraction`` throughout.  A :class:`TruncSeries`
stores the coefficients of b^0 .. b^(prec-1); everything from b^prec on is
unknown.  Public ring operations return the minimum precision of their
inputs and equality means agreement up to the shared precision.

:meth:`TruncSeries.mul_sharp` is the one series product: it keeps the
precision min(p1+v2, p2+v1) that the valuations allow, optionally capped,
and ``x * y`` is ``mul_sharp`` capped at min(p1, p2).  Its coefficients
come from :func:`convolve`, which polynomial products share.  ``shift``
also exploits valuations; the lattice and module layers depend on both.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotAUnit, PrecisionExhausted

DEFAULT_PREC = 32


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' with positive denominator."""
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def convolve(x, y, n: int) -> list:
    """The first n coefficients of the product of two coefficient sequences."""
    out = [Fraction(0)] * n
    for i, ci in enumerate(x[:n]):
        if ci:
            for j, cj in enumerate(y[:n - i]):
                if cj:
                    out[i + j] += ci * cj
    return out


class TruncSeries:
    """A power series in b known through order prec-1."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=None):
        coeffs = [rat(c) for c in coeffs]
        if prec is None:
            prec = len(coeffs)
        if prec < 0:
            raise ValueError("precision must be >= 0")
        if len(coeffs) < prec:
            coeffs = coeffs + [Fraction(0)] * (prec - len(coeffs))
        elif len(coeffs) > prec:
            coeffs = coeffs[:prec]
        self.coeffs = tuple(coeffs)
        self.prec = prec

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, prec=DEFAULT_PREC):
        return cls((), prec)

    @classmethod
    def one(cls, prec=DEFAULT_PREC):
        return cls((1,), prec)

    @classmethod
    def constant(cls, c, prec=DEFAULT_PREC):
        return cls((rat(c),), prec)

    @classmethod
    def b_power(cls, v, prec=DEFAULT_PREC):
        coeffs = [0] * v + [1]
        return cls(coeffs, prec)

    # -- structure queries -------------------------------------------

    def known_valuation(self):
        """Index of the first nonzero known coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def valuation_lower_bound(self) -> int:
        v = self.known_valuation()
        return self.prec if v is None else v

    def is_zero_known(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return self.prec >= 1 and self.coeffs[0] != 0

    def decided_zero(self, what="series") -> bool:
        """Zero test at current precision; raises if no coefficient is known."""
        if self.prec < 1:
            raise PrecisionExhausted(
                f"cannot decide whether {what} vanishes: no known coefficients")
        return self.is_zero_known()

    # -- ring operations (public rule: min precision) -----------------

    def _promote(self, other):
        if isinstance(other, TruncSeries):
            return other
        if isinstance(other, (int, Fraction, str)):
            return TruncSeries.constant(rat(other), self.prec)
        return None

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        p = min(self.prec, other.prec)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(p)], p)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        p = min(self.prec, other.prec)
        return TruncSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(p)], p)

    def __rsub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.mul_sharp(other, cap=min(self.prec, other.prec))

    __rmul__ = __mul__

    def scale(self, c) -> "TruncSeries":
        c = rat(c)
        return TruncSeries([c * x for x in self.coeffs], self.prec)

    def mul_sharp(self, other: "TruncSeries", cap=None) -> "TruncSeries":
        """Valuation-aware product: prec = min(p1+v2, p2+v1), optionally capped.

        Coefficients below the result precision only involve known inputs,
        so no information is invented.
        """
        v1 = self.valuation_lower_bound()
        v2 = other.valuation_lower_bound()
        p = min(self.prec + v2, other.prec + v1)
        if cap is not None:
            p = min(p, cap)
        return TruncSeries(convolve(self.coeffs, other.coeffs, p), p)

    def shift(self, k: int, cap=None) -> "TruncSeries":
        """Multiply by b^k exactly; precision grows by k (optionally capped)."""
        if k < 0:
            raise ValueError("use divide_bpow for negative shifts")
        p = self.prec + k
        if cap is not None:
            p = min(p, cap)
        coeffs = [Fraction(0)] * k + list(self.coeffs)
        return TruncSeries(coeffs[:p], p)

    def truncate(self, p: int) -> "TruncSeries":
        p = min(p, self.prec)
        return TruncSeries(self.coeffs[:p], p)

    def derivative(self) -> "TruncSeries":
        """d/db; loses one order of precision."""
        p = max(self.prec - 1, 0)
        return TruncSeries(
            [(i + 1) * self.coeffs[i + 1] for i in range(p)], p)

    def twist(self, cap=None) -> "TruncSeries":
        """b^2 * d/db, the commutator correction; precision gains one order."""
        return self.derivative().shift(2, cap=cap)

    def invert(self) -> "TruncSeries":
        if self.prec < 1 or self.coeffs[0] == 0:
            raise NotAUnit("series has no invertible constant term")
        p = self.prec
        c0 = self.coeffs[0]
        out = [Fraction(1, 1) / c0]
        for n in range(1, p):
            s = Fraction(0)
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    s += self.coeffs[i] * out[n - i]
            out.append(-s / c0)
        return TruncSeries(out, p)

    def divide_bpow(self, v: int) -> "TruncSeries":
        """Exact division by b^v; requires the known low coefficients to vanish."""
        if v == 0:
            return self
        known_low = self.coeffs[:min(v, self.prec)]
        if any(c for c in known_low):
            raise ValueError("series is not divisible by b^%d" % v)
        if self.prec - v < 1:
            raise PrecisionExhausted(
                f"dividing by b^{v} leaves no known coefficients (prec {self.prec})")
        return TruncSeries(self.coeffs[v:], self.prec - v)

    def split_at(self, v: int):
        """Return (low, high) with self = low + b^v * high, deg(low) < v."""
        low = TruncSeries(self.coeffs[:min(v, self.prec)], self.prec)
        if self.prec - v < 0:
            raise PrecisionExhausted(f"cannot split beyond precision {self.prec}")
        high = TruncSeries(self.coeffs[v:], self.prec - v)
        return low, high

    # -- comparison ---------------------------------------------------

    def eq_shared(self, other) -> bool:
        other = self._promote(other)
        p = min(self.prec, other.prec)
        return self.coeffs[:p] == other.coeffs[:p]

    def __eq__(self, other):
        if isinstance(other, (TruncSeries, int, Fraction)):
            return self.eq_shared(other)
        return NotImplemented

    __hash__ = None

    def __bool__(self):
        return not self.is_zero_known()

    # -- rendering ----------------------------------------------------

    def render(self, var="b") -> str:
        terms = [(c, i) for i, c in enumerate(self.coeffs) if c]
        if not terms:
            return "0"
        parts = []
        for c, i in terms:
            mag = abs(c)
            if i == 0:
                frag = rat_str(mag)
            else:
                pw = var if i == 1 else f"{var}^{i}"
                frag = pw if mag == 1 else f"{rat_str(mag)}*{pw}"
            if not parts:
                parts.append(("-" if c < 0 else "") + frag)
            else:
                parts.append(("- " if c < 0 else "+ ") + frag)
        return " ".join(parts)

    def __repr__(self):
        return f"TruncSeries({self.render()}; prec={self.prec})"

    def to_json(self):
        return {"coeffs": [rat_str(c) for c in self.coeffs], "prec": self.prec}

    @classmethod
    def from_json(cls, obj):
        return cls([rat(c) for c in obj["coeffs"]], obj["prec"])

