"""Minimal and characteristic polynomials, and rational root splitting.

The laws below fix both polynomials uniquely: the minimal polynomial is
the monic annihilator of least degree, and the characteristic polynomial
is det(tI - M), which a polynomial of degree n is fixed by at n + 1
points.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from abmod.qlinalg import identity, mat_mul, rref
from abmod.ratpoly import (RationalPolynomial, charpoly, minpoly, pdeg,
                           pdivmod, pfrom_roots, pmul, pnorm,
                           split_rational_roots)

ENTRIES = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


@st.composite
def rational_matrix(draw, max_n=5):
    """An n x n matrix c I + A B with A n x r and B r x n, n <= max_n, so
    the part A B has rank at most r and repeated eigenvalues are common."""
    n = draw(st.integers(0, max_n))
    r = draw(st.integers(0, n))
    a = [[draw(ENTRIES) for _ in range(r)] for _ in range(n)]
    b = [[draw(ENTRIES) for _ in range(n)] for _ in range(r)]
    c = draw(ENTRIES)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(r)), F(0))
                       + (c if i == j else 0) for j in range(n))
                 for i in range(n))


def poly_at(p, m):
    """p(M) by Horner's rule."""
    n = len(m)
    acc = tuple((F(0),) * n for _ in range(n))
    for c in reversed(p):
        acc = tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(row))
                    for i, row in enumerate(mat_mul(acc, m)))
    return acc


def det(m):
    """Determinant by Fraction elimination."""
    rows = [list(r) for r in m]
    out = F(1)
    for c in range(len(rows)):
        pr = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            return F(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def flat_rank(mats):
    """Rank of the matrices as vectors of their entries."""
    return len(rref(tuple(zip(*[[x for row in w for x in row]
                                for w in mats])))[1])


def powers(m, d):
    """I, M, ..., M^(d-1)."""
    out = [identity(len(m))]
    for _ in range(d - 1):
        out.append(mat_mul(m, out[-1]))
    return out[:d]


@PROPERTY
@given(rational_matrix())
def test_minpoly_is_the_monic_annihilator_of_least_degree(m):
    p = minpoly(m)
    d = pdeg(p)
    assert p[-1] == 1
    assert all(x == 0 for row in poly_at(p, m) for x in row)
    # no polynomial of degree < d annihilates M: I, ..., M^(d-1) are
    # linearly independent
    assert flat_rank(powers(m, d)) == d


@PROPERTY
@given(rational_matrix())
def test_minpoly_divides_charpoly(m):
    _, rem = pdivmod(charpoly(m), minpoly(m))
    assert pdeg(rem) < 0


@PROPERTY
@given(rational_matrix())
def test_charpoly_is_det_t_minus_m(m):
    p = charpoly(m)
    n = len(m)
    assert pdeg(p) == n and p[-1] == 1
    for t in range(n + 1):
        tm = tuple(tuple((t if i == j else 0) - x for j, x in enumerate(row))
                   for i, row in enumerate(m))
        assert sum(c * t ** k for k, c in enumerate(p)) == det(tm)


def companion(p):
    """Companion matrix of the monic polynomial p (ascending coefficients)."""
    n = len(p) - 1
    return tuple(tuple(F(int(i == j + 1)) - (p[i] if j == n - 1 else 0)
                       for j in range(n)) for i in range(n))


def block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [[F(0)] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return tuple(map(tuple, out))


def jordan(c, n):
    return tuple(tuple(F(c) if i == j else F(int(j == i + 1))
                       for j in range(n)) for i in range(n))


X2_2 = pnorm((-2, 0, 1))        # x^2 - 2
X3_2 = pnorm((2, 0, 0, 1))      # x^3 + 2


@pytest.mark.parametrize("m, minimal, characteristic", [
    (tuple(), (1,), (1,)),
    (block_diag(jordan(F(3, 2), 1), jordan(F(3, 2), 1), jordan(F(3, 2), 1)),
     pfrom_roots([(F(3, 2), 1)]), pfrom_roots([(F(3, 2), 3)])),
    (jordan(F(-1, 2), 4), pfrom_roots([(F(-1, 2), 4)]),
     pfrom_roots([(F(-1, 2), 4)])),
    (block_diag(jordan(0, 2), jordan(0, 1)), pfrom_roots([(0, 2)]),
     pfrom_roots([(0, 3)])),
    (block_diag(jordan(1, 2), jordan(2, 1)), pfrom_roots([(1, 2), (2, 1)]),
     pfrom_roots([(1, 2), (2, 1)])),
    (companion(X2_2), X2_2, X2_2),
    (block_diag(companion(X2_2), companion(X2_2)), X2_2, pmul(X2_2, X2_2)),
    (companion(X3_2), X3_2, X3_2),
    (block_diag(companion(X3_2), jordan(F(1, 3), 1)),
     pmul(X3_2, pfrom_roots([(F(1, 3), 1)])),
     pmul(X3_2, pfrom_roots([(F(1, 3), 1)]))),
], ids=["rank0", "scalar", "jordan4", "nilpotent", "jordan_and_line",
        "x2-2", "x2-2_twice", "x3+2", "x3+2_and_line"])
def test_planted_matrices(m, minimal, characteristic):
    assert minpoly(m) == pnorm(minimal)
    assert charpoly(m) == pnorm(characteristic)


UNSPLIT = [pnorm(u) for u in [(1,), X2_2, (1, 0, 1), X3_2, (1, 1, 1),
                              (1, 0, 0, 0, 1), pmul(X2_2, (1, 0, 1))]]


@PROPERTY
@given(st.dictionaries(st.sampled_from([F(0), F(1), F(-1), F(1, 2),
                                        F(-3, 2), F(2, 3), F(5), F(-7, 4)]),
                       st.integers(1, 3), max_size=4),
       st.sampled_from(UNSPLIT))
def test_split_rational_roots_recovers_roots_and_cofactor(roots, u):
    r = sorted(roots.items())
    got_roots, rem = split_rational_roots(pmul(pfrom_roots(r), u))
    assert got_roots == r
    assert rem == u


def test_render_places_zero_roots_and_unsplit_factors():
    p = RationalPolynomial(pmul(pfrom_roots([(0, 2), (F(-1, 2), 1)]), X2_2))
    assert p.render() == "(x + 1/2)x^2[x^2 - 2]"
    assert RationalPolynomial.from_roots([(0, 1), (3, 2)]).render() \
        == "x(x - 3)^2"
