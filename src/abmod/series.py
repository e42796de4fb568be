"""Exact rational scalars and truncated formal power series in b.

Coefficients are ``fractions.Fraction`` throughout.  A :class:`TruncSeries`
stores the coefficients of b^0 .. b^(prec-1); everything from b^prec on is
unknown.  Public ring operations return the minimum precision of their
inputs and equality means agreement up to the shared precision.

:meth:`TruncSeries.mul_sharp` is the one series product: it keeps the
precision min(p1+v2, p2+v1) that the valuations allow, optionally capped,
and ``x * y`` is ``mul_sharp`` capped at min(p1, p2).  ``shift`` also
exploits valuations; the lattice and module layers depend on both.

The kernels compute over the integers.  Each series is converted once:
its integer form, the numerators of all its coefficients over their lcm
d, is computed on first use and kept.  ``_product`` holds the one
convolution loop over two such forms; a head of n < prec coefficients is
a prefix of the numerators over the full d.  ``mul_sharp``, polynomial
products (:func:`convolve`), the fused row operation
:meth:`TruncSeries.sub_mul`, ``x - c * y`` at the precision of
``x - c.mul_sharp(y)``, and the fused sum of products
:meth:`TruncSeries.dot` all use it, and :meth:`TruncSeries.invert` runs
its recurrence on the integer form too.  ``dot`` also fuses the module
action: a row of (a - m b) x adds b^2 x_i' - m b x_i, the term
(n - 1 - m) x_(i,n-1) at b^n, to the same sum of numerators, with no
series built for the twist or for b x.  ``mul_sharp``, ``sub_mul`` and
``dot`` hand their results the integer form they computed, reduced by
the gcd.
Each builds one ``Fraction`` per nonzero result coefficient, and since
``Fraction`` is canonical the rationals are the ones that exact rational
arithmetic gives.

:func:`render_terms` is the one renderer of a signed sum of terms: series
in b, polynomials (``ratpoly.prender``) and operators in a and b
(``AbOperator.render``) each hand it (coefficient, factors) pairs in
their own order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import NotAUnit, PrecisionExhausted

DEFAULT_PREC = 32
_ZERO = Fraction(0)


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


def power_factor(var: str, i: int) -> list:
    """The factors of var^i in a rendered term: none, var, or var^i."""
    if i == 0:
        return []
    return [var if i == 1 else f"{var}^{i}"]


def render_terms(terms) -> str:
    """The signed sum of (coefficient, factors) pairs, e.g. (-2, ["b^2"])
    as -2*b^2: the first term keeps a bare minus, later ones are joined by
    '+ ' or '- ', and a magnitude of 1 is dropped before a factor.  The
    empty sum is 0."""
    parts = []
    for c, factors in terms:
        mag = abs(c)
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + "*".join(factors if mag == 1 and factors
                                     else [rat_str(mag)] + factors))
    return " ".join(parts) if parts else "0"


def _numerators(coeffs, n: int):
    """(integer numerators, common denominator) of the first n coefficients;
    the denominator is their lcm."""
    head = coeffs[:n]
    d = lcm(*[c.denominator for c in head])
    if d == 1:
        return tuple(c.numerator for c in head), 1
    return tuple(c.numerator * (d // c.denominator) for c in head), d


def _reduced(nums, d: int):
    """The integer form of the rationals nums[i] / d: divided by the gcd,
    d becomes the lcm of their denominators."""
    g = gcd(d, *nums)
    if g == 1:
        return tuple(nums), d
    return tuple(c // g for c in nums), d // g


def _over(nums, d: int) -> tuple:
    """The rationals nums[i] / d, one normalisation per nonzero entry."""
    return tuple(Fraction(c, d) if c else _ZERO for c in nums)


def _product(x, y, n: int):
    """(integer numerators, common denominator) of the first n coefficients
    of the product of two integer forms (numerators, denominator).  This is
    the only convolution loop."""
    a, da = x
    b, db = y
    out = [0] * n
    nzb = [(j, c) for j, c in enumerate(b[:n]) if c]
    for i, ai in enumerate(a[:n]):
        if ai:
            lim = n - i
            for j, bj in nzb:
                if j >= lim:
                    break
                out[i + j] += ai * bj
    return out, da * db


def convolve(x, y, n: int) -> list:
    """The first n coefficients of the product of two coefficient sequences."""
    return list(_over(*_product(_numerators(x, n), _numerators(y, n), n)))


class TruncSeries:
    """A power series in b known through order prec-1."""

    __slots__ = ("coeffs", "prec", "_form")

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
        self._form = None

    @classmethod
    def _exact(cls, coeffs, prec, form=None):
        """A series from exactly *prec* Fraction coefficients, unchecked;
        *form* is their integer form, if the caller has it."""
        s = object.__new__(cls)
        s.coeffs = tuple(coeffs)
        s.prec = prec
        s._form = form
        return s

    def _integers(self):
        """(numerators, d) of all prec coefficients, d their lcm; computed
        once per series."""
        if self._form is None:
            self._form = _numerators(self.coeffs, self.prec)
        return self._form

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
        return TruncSeries._exact(
            [self.coeffs[i] + other.coeffs[i] for i in range(p)], p)

    __radd__ = __add__

    def __neg__(self):
        return TruncSeries._exact([-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        p = min(self.prec, other.prec)
        return TruncSeries._exact(
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
        return TruncSeries._exact([c * x for x in self.coeffs], self.prec)

    def mul_sharp(self, other: "TruncSeries", cap=None) -> "TruncSeries":
        """Valuation-aware product: prec = min(p1+v2, p2+v1), optionally capped.

        Coefficients below the result precision only involve known inputs,
        so no information is invented.
        """
        p = self._sharp_prec(other, cap)
        form = _reduced(*_product(self._integers(), other._integers(), p))
        return TruncSeries._exact(_over(*form), p, form)

    def _sharp_prec(self, other, cap):
        v1 = self.valuation_lower_bound()
        v2 = other.valuation_lower_bound()
        p = min(self.prec + v2, other.prec + v1)
        return p if cap is None else min(p, cap)

    def sub_mul(self, c: "TruncSeries", y: "TruncSeries",
                cap=None) -> "TruncSeries":
        """The row operation self - c * y, fused: the same coefficients and
        precision as ``self - c.mul_sharp(y, cap=cap)``, with one
        normalisation per nonzero result coefficient."""
        p = min(self.prec, c._sharp_prec(y, cap))
        prod, dp = _product(c._integers(), y._integers(), p)
        x, dx = self._integers()
        d = lcm(dx, dp)
        sx, sp = d // dx, d // dp
        form = _reduced([u * sx - w * sp for u, w in zip(x, prod)], d)
        return TruncSeries._exact(_over(*form), p, form)

    @classmethod
    def dot(cls, pairs, cap, lift=None) -> "TruncSeries":
        """The sum of c * y over a list of (c, y) pairs, fused: the same
        coefficients and precision as ``-zero(cap).sub_mul(c, y, cap=cap)``
        chained over every pair, the precision being the least of cap and
        every ``c.mul_sharp(y)`` precision.  The products' numerators are
        summed over the lcm of their denominators and normalised once.

        With *lift* = (x, m) the sum also gains b^2 x' - m b x, the term
        (n - 1 - m) x_(n-1) at b^n, and the precision is capped by that of
        ``x.twist(cap=cap)`` and, for m != 0, of ``x.shift(1, cap=cap)``.
        A row of (a - m b) applied to a module element is one such sum."""
        p = min([cap] + [c._sharp_prec(y, cap) for c, y in pairs])
        if lift is not None:
            x, m = lift
            # the twist keeps max(px - 1, 0) + 2 orders and b x keeps px + 1
            p = min(p, x.prec + 1 if x.prec or m else 2)
        prods = [_product(c._integers(), y._integers(), p) for c, y in pairs]
        if lift is not None:
            nums, dx = x._integers()
            prods.append(([0] + [(k - m) * c for k, c
                                 in enumerate(nums[:max(p - 1, 0)])], dx))
        d = lcm(*[dp for _, dp in prods])
        acc = [0] * p
        for nums, dp in prods:
            s = d // dp
            for i, v in enumerate(nums):
                if v:
                    acc[i] += v * s
        form = _reduced(acc, d)
        return cls._exact(_over(*form), p, form)

    def shift(self, k: int, cap=None) -> "TruncSeries":
        """Multiply by b^k exactly; precision grows by k (optionally capped)."""
        if k < 0:
            raise ValueError("use divide_bpow for negative shifts")
        p = self.prec + k
        if cap is not None:
            p = min(p, cap)
        return TruncSeries._exact(((_ZERO,) * k + self.coeffs)[:p], p)

    def truncate(self, p: int) -> "TruncSeries":
        """The first p coefficients; *self* when p >= prec, since a series
        never changes after it is built."""
        if p >= self.prec:
            return self
        if p < 0:
            raise ValueError("precision must be >= 0")
        return TruncSeries._exact(self.coeffs[:p], p)

    def derivative(self) -> "TruncSeries":
        """d/db; loses one order of precision."""
        p = max(self.prec - 1, 0)
        return TruncSeries._exact(
            [(i + 1) * self.coeffs[i + 1] for i in range(p)], p)

    def twist(self, cap=None) -> "TruncSeries":
        """b^2 * d/db, the commutator correction; precision gains one order."""
        return self.derivative().shift(2, cap=cap)

    def invert(self) -> "TruncSeries":
        if self.prec < 1 or self.coeffs[0] == 0:
            raise NotAUnit("series has no invertible constant term")
        # With self = A / d for integer A, 1/self = d / A, and coefficient n
        # of 1/A is B_n / a0^(n+1), where B_0 = 1 and
        # B_n = -sum_{i=1..n} a_i a0^(i-1) B_(n-i).
        p = self.prec
        a, d = self._integers()
        a0 = a[0]
        w = [(i, a[i] * a0 ** (i - 1)) for i in range(1, p) if a[i]]
        num = [1]
        for n in range(1, p):
            s = 0
            for i, wi in w:
                if i > n:
                    break
                s += wi * num[n - i]
            num.append(-s)
        out, den = [], a0
        for bn in num:
            out.append(Fraction(d * bn, den) if bn else _ZERO)
            den *= a0
        return TruncSeries._exact(out, p)

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
        return TruncSeries._exact(self.coeffs[v:], self.prec - v)

    def split_at(self, v: int):
        """Return (low, high) with self = low + b^v * high, deg(low) < v."""
        low = TruncSeries(self.coeffs[:min(v, self.prec)], self.prec)
        if self.prec - v < 0:
            raise PrecisionExhausted(f"cannot split beyond precision {self.prec}")
        high = TruncSeries._exact(self.coeffs[v:], self.prec - v)
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
        return render_terms((c, power_factor(var, i))
                            for i, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"TruncSeries({self.render()}; prec={self.prec})"

    def to_json(self):
        return {"coeffs": [rat_str(c) for c in self.coeffs], "prec": self.prec}

    @classmethod
    def from_json(cls, obj):
        return cls([rat(c) for c in obj["coeffs"]], obj["prec"])

