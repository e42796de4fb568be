"""Polynomials over the rationals and Bernstein-data containers.

Dense coefficient lists in ascending degree.  Includes minimal and
characteristic polynomials of exact matrices, both read off the powers
I, M, ..., M^n of the matrix, and complete rational root splitting;
irrational factors are kept unsplit rather than approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .qlinalg import identity, mat_mul, rref, trace
from .series import convolve, power_factor, rat, rat_str, render_terms


# -- raw polynomial helpers (ascending coefficients) ------------------

def pnorm(p):
    p = [rat(c) for c in p]
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p) if p else (Fraction(0),)


def pdeg(p) -> int:
    p = pnorm(p)
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    return pnorm([ (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def pscale(p, c):
    c = rat(c)
    return pnorm([c * x for x in p])


def pmul(p, q):
    p, q = pnorm(p), pnorm(q)
    return pnorm(convolve(p, q, len(p) + len(q) - 1))


def pdivmod(p, q):
    p = list(pnorm(p))
    q = pnorm(q)
    if pdeg(q) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while pdeg(p) >= pdeg(q):
        shift = pdeg(p) - pdeg(q)
        c = p[-1] / q[-1]
        quot[shift] = c
        for i, b in enumerate(q):
            p[shift + i] -= c * b
        while len(p) > 1 and p[-1] == 0:
            p.pop()
    return pnorm(quot), pnorm(p)


def pmonic(p):
    p = pnorm(p)
    if p[-1] == 0:
        return p
    return pscale(p, 1 / p[-1])


def peval(p, x):
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(pnorm(p)):
        acc = acc * x + c
    return acc


def pcompose_shift(p, delta):
    """p(x + delta) via Horner in (x + delta)."""
    delta = rat(delta)
    acc = (Fraction(0),)
    for c in reversed(pnorm(p)):
        acc = padd(pmul(acc, (delta, Fraction(1))), (c,))
    return acc


def pfrom_roots(roots):
    """Monic polynomial with the given (value, multiplicity) roots."""
    p = (Fraction(1),)
    for value, mult in roots:
        for _ in range(mult):
            p = pmul(p, (-rat(value), Fraction(1)))
    return p


def prender(p, var="x") -> str:
    return render_terms((c, power_factor(var, i))
                        for i, c in reversed(list(enumerate(pnorm(p)))) if c)


# -- minimal / characteristic polynomial ------------------------------

def _powers(m):
    """I, M, ..., M^n of an n x n matrix."""
    powers = [identity(len(m))]
    for _ in m:
        powers.append(mat_mul(m, powers[-1]))
    return powers


def charpoly(m):
    """Characteristic polynomial det(xI - M), from the power sums
    p_k = tr(M^k) by Newton's identities: with det(xI - M) =
    x^n + c_1 x^(n-1) + ... + c_n and c_0 = 1,
    k c_k = -(c_0 p_k + ... + c_(k-1) p_1)."""
    sums = [trace(pw) for pw in _powers(m)]
    c = [Fraction(1)]
    for k in range(1, len(m) + 1):
        c.append(-sum((c[i] * sums[k - i] for i in range(k)), Fraction(0)) / k)
    return pnorm(c[::-1])


def minpoly(m):
    """Minimal polynomial of an exact square matrix.

    M^d is the first power that depends on I, ..., M^(d-1); by
    Cayley-Hamilton d <= n, and every later power depends too.  So the
    reduced echelon form of the flattened powers (one column each) has
    pivots 0..d-1, and its column d holds M^d in terms of the lower ones.
    """
    cols = [[x for row in pw for x in row] for pw in _powers(m)]
    red, pivots = rref(tuple(zip(*cols)))
    d = len(pivots)
    return pnorm([-red[r][d] for r in range(d)] + [Fraction(1)])


# -- rational root splitting ------------------------------------------

def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def split_rational_roots(p):
    """Split off rational roots with multiplicity.

    Returns (roots, remainder): roots is a list of (value, multiplicity)
    sorted by value, remainder is the monic rational-root-free cofactor.
    """
    p = pmonic(pnorm(p))
    roots = {}
    # strip powers of x
    while pdeg(p) > 0 and p[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        p = pnorm(p[1:])

    while pdeg(p) > 0:
        den = lcm(*[c.denominator for c in p])
        # a0 != 0: zero roots are stripped above and no division restores one
        a0, ak = int(p[0] * den), int(p[-1] * den)
        candidates = (Fraction(sign * pn, qn) for pn in _divisors(a0)
                      for qn in _divisors(ak) for sign in (1, -1))
        r = next((c for c in candidates if peval(p, c) == 0), None)
        if r is None:
            break
        while pdeg(p) > 0 and peval(p, r) == 0:
            p, _ = pdivmod(p, (-r, Fraction(1)))
            roots[r] = roots.get(r, 0) + 1
    out = sorted(roots.items(), key=lambda t: t[0])
    return out, p


# -- Bernstein data container ------------------------------------------

class RationalPolynomial:
    """A monic rational polynomial with optional root data.

    ``roots`` is a tuple of (value, multiplicity) pairs covering the split
    part; ``unsplit`` is the remaining factor when rational-root search
    could not finish the job (degree 0 means fully split).
    """

    __slots__ = ("coeffs", "roots", "unsplit")

    def __init__(self, coeffs, roots=None, unsplit=None):
        self.coeffs = pmonic(pnorm(coeffs))
        if roots is None:
            roots, rem = split_rational_roots(self.coeffs)
            unsplit = rem if pdeg(rem) > 0 else None
        self.roots = tuple((rat(v), int(m)) for v, m in roots)
        self.unsplit = pnorm(unsplit) if unsplit is not None and pdeg(pnorm(unsplit)) > 0 else None

    @classmethod
    def from_matrix(cls, m, mode="minimal"):
        p = minpoly(m) if mode == "minimal" else charpoly(m)
        roots, rem = split_rational_roots(p)
        return cls(p, roots, rem if pdeg(rem) > 0 else None)

    @classmethod
    def from_roots(cls, roots):
        roots = sorted(((rat(v), int(m)) for v, m in roots), key=lambda t: t[0])
        return cls(pfrom_roots(roots), roots, None)

    @classmethod
    def one(cls):
        return cls((Fraction(1),), (), None)

    def degree(self) -> int:
        return pdeg(self.coeffs)

    def is_split(self) -> bool:
        return self.unsplit is None

    def shift(self, delta) -> "RationalPolynomial":
        """The polynomial x -> self(x - delta); roots move up by delta."""
        delta = rat(delta)
        coeffs = pcompose_shift(self.coeffs, -delta)
        roots = tuple((v + delta, m) for v, m in self.roots)
        unsplit = pcompose_shift(self.unsplit, -delta) if self.unsplit else None
        return RationalPolynomial(coeffs, roots, unsplit)

    def mul(self, other: "RationalPolynomial") -> "RationalPolynomial":
        merged = {}
        for v, m in self.roots + other.roots:
            merged[v] = merged.get(v, 0) + m
        unsplit = None
        if self.unsplit is not None or other.unsplit is not None:
            unsplit = pmul(self.unsplit or (Fraction(1),),
                           other.unsplit or (Fraction(1),))
            if pdeg(unsplit) <= 0:
                unsplit = None
        return RationalPolynomial(
            pmul(self.coeffs, other.coeffs),
            sorted(merged.items(), key=lambda t: t[0]),
            unsplit)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def render(self) -> str:
        if self.degree() == 0:
            return "1"
        if not self.roots and self.unsplit is None:
            return prender(self.coeffs)
        parts = []
        for v, m in self.roots:
            if v == 0:
                base = "x"
            elif v < 0:
                base = f"(x + {rat_str(-v)})"
            else:
                base = f"(x - {rat_str(v)})"
            parts.append(base + (f"^{m}" if m > 1 else ""))
        if self.unsplit is not None:
            parts.append(f"[{prender(self.unsplit)}]")
        return "".join(parts) if parts else "1"

    def __repr__(self):
        return f"RationalPolynomial({self.render()})"

    def to_json(self):
        out = {
            "coeffs": [rat_str(c) for c in self.coeffs],
            "roots": [{"value": rat_str(v), "mult": m} for v, m in self.roots],
        }
        if self.unsplit is not None:
            out["unsplit"] = [rat_str(c) for c in self.unsplit]
        return out
