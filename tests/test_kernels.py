"""Property tests of the product kernels against naive double sums.

Series are drawn at precision 0..12 with a planted valuation: every
coefficient below it is zero and the one at it is not, so the precision
each product should reach is known without asking the code under test.
Coefficients mix small rationals with pairwise coprime denominators, a
61-bit prime denominator and numerators near 2**70, so the common
denominators and integer numerators of the series kernel get large.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

import pytest

from abmod import TruncSeries
from abmod.errors import NotAUnit
from abmod.modules import AbModule, ModuleElement, smat_mul, smat_vec
from abmod.ratpoly import pmul, pnorm
from abmod.series import _numerators, convolve

MAX_PREC = 12
PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

BIG_PRIME = 2**61 - 1
coeff = st.one_of(
    st.sampled_from([F(n, d) for n in range(-4, 5) for d in (1, 2, 3, 5)]),
    st.builds(F, st.integers(-6, 6), st.sampled_from([7, 11, 13, BIG_PRIME])),
    st.builds(F, st.integers(-3, 3).map(lambda k: 2**70 + k)
              | st.integers(-3, 3).map(lambda k: -2**70 + k),
              st.sampled_from([1, 3, 13, BIG_PRIME])))
nonzero = coeff.filter(bool)


@st.composite
def planted(draw):
    """(series, valuation); the valuation equals prec for a known zero."""
    prec = draw(st.integers(0, MAX_PREC))
    v = draw(st.integers(0, prec))
    coeffs = [F(0)] * v
    if v < prec:
        coeffs.append(draw(nonzero))
        coeffs += draw(st.lists(coeff, min_size=prec - v - 1,
                                max_size=prec - v - 1))
    return TruncSeries(coeffs, prec), v


def naive(x, y, n):
    """First n coefficients of the product, as a double sum."""
    return [sum((x[i] * y[k - i] for i in range(k + 1)
                 if i < len(x) and k - i < len(y)), F(0))
            for k in range(n)]


def sharp_reference(x, y, cap):
    """(coefficients, precision) of the valuation-aware product."""
    (sx, vx), (sy, vy) = x, y
    p = min(sx.prec + vy, sy.prec + vx, cap)
    return naive(sx.coeffs, sy.coeffs, p), p


def sum_reference(terms, cap):
    """Entrywise sum of (coefficients, precision) pairs, from zero at cap."""
    p = min([cap] + [q for _, q in terms])
    return [sum((c[k] for c, _ in terms), F(0)) for k in range(p)], p


def as_pair(s):
    return list(s.coeffs), s.prec


@PROPS
@given(st.lists(coeff, max_size=MAX_PREC), st.lists(coeff, max_size=MAX_PREC),
       st.integers(0, 2 * MAX_PREC))
def test_convolve_matches_double_sum(x, y, n):
    assert convolve(x, y, n) == naive(x, y, n)


@PROPS
@given(planted(), planted())
def test_star_is_mul_sharp_capped_at_min_precision(x, y):
    (sx, _), (sy, _) = x, y
    p = min(sx.prec, sy.prec)
    prod = sx * sy
    assert prod.prec == p
    assert list(prod.coeffs) == naive(sx.coeffs, sy.coeffs, p)
    assert prod.coeffs == sx.mul_sharp(sy, cap=p).coeffs
    assert prod.coeffs == sx.mul_sharp(sy).truncate(p).coeffs


@PROPS
@given(planted(), planted(), st.integers(0, 2 * MAX_PREC))
def test_mul_sharp_precision_follows_valuations(x, y, cap):
    out = x[0].mul_sharp(y[0], cap=cap)
    assert as_pair(out) == sharp_reference(x, y, cap)


@st.composite
def mat_and_vec(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    mat = [[draw(planted()) for _ in range(cols)] for _ in range(rows)]
    vec = [draw(planted()) for _ in range(cols)]
    return mat, vec, draw(st.integers(0, MAX_PREC))


@PROPS
@given(mat_and_vec())
def test_smat_vec_matches_entrywise_sums(case):
    mat, vec, cap = case
    out = smat_vec([[s for s, _ in row] for row in mat],
                   [s for s, _ in vec], cap)
    assert len(out) == len(mat)
    for got, row in zip(out, mat):
        expect = sum_reference(
            [sharp_reference(e, x, cap) for e, x in zip(row, vec)], cap)
        assert as_pair(got) == expect


@st.composite
def sparse_mat_and_vec(draw):
    """Like mat_and_vec, with half the matrix and vector entries known
    zeros whose precision is drawn on both sides of the cap."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cap = draw(st.integers(0, MAX_PREC))

    def entry():
        if draw(st.booleans()):
            return TruncSeries.zero(draw(st.integers(0, MAX_PREC)))
        return draw(planted())[0]
    mat = [[entry() for _ in range(cols)] for _ in range(rows)]
    return mat, [entry() for _ in range(cols)], cap


def dense_smat_vec(mat, vec, cap):
    """mat . vec with one row operation for every entry, zeros included."""
    out = []
    for row in mat:
        acc = TruncSeries.zero(cap)
        for e, x in zip(row, vec):
            acc = acc.sub_mul(e, x, cap=cap)
        out.append(-acc)
    return out


@PROPS
@given(sparse_mat_and_vec())
def test_smat_vec_skips_only_zeros_that_keep_the_precision(case):
    """Skipping a known zero of precision >= cap, in the matrix or in the
    vector, changes nothing; one of lower precision still lowers the
    precision of the rows it meets."""
    mat, vec, cap = case
    assert [as_pair(e) for e in smat_vec(mat, vec, cap)] \
        == [as_pair(e) for e in dense_smat_vec(mat, vec, cap)]


@st.composite
def two_mats(draw):
    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))
    a = [[draw(planted()) for _ in range(k)] for _ in range(n)]
    b = [[draw(planted()) for _ in range(m)] for _ in range(k)]
    return a, b, draw(st.integers(0, MAX_PREC))


@PROPS
@given(two_mats())
def test_smat_mul_matches_entrywise_sums(case):
    a, b, cap = case
    m = len(b[0]) if b else 0     # a matrix with no rows has no columns
    out = smat_mul([[s for s, _ in row] for row in a],
                   [[s for s, _ in row] for row in b], cap)
    assert len(out) == len(a)
    for i, row in enumerate(out):
        assert len(row) == m
        for j, got in enumerate(row):
            expect = sum_reference(
                [sharp_reference(a[i][t], b[t][j], cap)
                 for t in range(len(b))], cap)
            assert as_pair(got) == expect


@PROPS
@given(st.lists(coeff, min_size=1, max_size=8),
       st.lists(coeff, min_size=1, max_size=8))
def test_pmul_matches_polynomial_product(p, q):
    assert pmul(p, q) == pnorm(naive(p, q, len(p) + len(q) - 1))


@PROPS
@given(planted(), planted(), planted(), st.integers(0, 2 * MAX_PREC))
def test_sub_mul_is_the_unfused_row_operation(x, c, y, cap):
    (sx, _), (sc, _), (sy, _) = x, c, y
    out = sx.sub_mul(sc, sy, cap=cap)
    prod, p = sharp_reference(c, y, cap)
    p = min(p, sx.prec)
    assert as_pair(out) == ([sx.coeffs[k] - prod[k] for k in range(p)], p)
    assert as_pair(out) == as_pair(sx - sc.mul_sharp(sy, cap=cap))
    assert as_pair(sx.sub_mul(sc, sy)) == as_pair(sx - sc.mul_sharp(sy))


def naive_inverse(coeffs):
    """1 / series by the textbook recurrence over the rationals."""
    out = [1 / coeffs[0]]
    for n in range(1, len(coeffs)):
        out.append(-sum((coeffs[i] * out[n - i] for i in range(1, n + 1)),
                        F(0)) / coeffs[0])
    return out


@PROPS
@given(planted())
def test_invert_matches_the_recurrence(x):
    s, v = x
    if v > 0 or s.prec == 0:     # no invertible constant term
        with pytest.raises(NotAUnit):
            s.invert()
        return
    inv = s.invert()
    assert as_pair(inv) == (naive_inverse(s.coeffs), s.prec)
    assert as_pair(inv.mul_sharp(s)) == ([F(1)] + [F(0)] * (s.prec - 1),
                                         s.prec)


def assert_integer_form(s):
    """The integer form of s holds its coefficients over their lcm, the
    same form that converting the coefficients afresh gives."""
    nums, d = s._integers()
    assert len(nums) == s.prec
    assert all(F(n, d) == c for n, c in zip(nums, s.coeffs))
    assert gcd(d, *nums) == 1
    assert (nums, d) == _numerators(s.coeffs, s.prec)


@PROPS
@given(planted(), planted(), planted(), st.integers(0, 2 * MAX_PREC))
def test_every_series_holds_its_integer_form(x, c, y, cap):
    """Kernel results carry the form they computed; truncations and other
    series fill theirs on first use."""
    (sx, _), (sc, _), (sy, _) = x, c, y
    fresh = TruncSeries(sx.coeffs, sx.prec)
    assert_integer_form(fresh)
    results = [sc.mul_sharp(sy, cap=cap), sc.mul_sharp(sy),
               sx.sub_mul(sc, sy, cap=cap), sx.sub_mul(sc, sy),
               *smat_vec([[sc, sx]], [sy, sc], cap)]
    if sx.is_unit():
        results.append(sx.invert())
    # sx holds its form by now, so a truncation must not reuse it
    results += [sx.truncate(p) for p in range(sx.prec)]
    for s in [sx, sc, sy] + results:
        assert_integer_form(s)
    assert sx.truncate(sx.prec) is sx and sx.truncate(cap + sx.prec) is sx


@st.composite
def module_and_element(draw):
    """A module of rank 1-4 at precision 0 .. MAX_PREC whose a-matrix
    entries are planted series or known zeros, and an element whose
    coordinates have precision 0 .. the host's, known zeros included."""
    k, p = draw(st.integers(1, 4)), draw(st.integers(0, MAX_PREC))

    def entry():
        if draw(st.booleans()):
            return TruncSeries.zero(p)
        s = draw(planted())[0]
        return TruncSeries(s.coeffs, max(s.prec, p))

    def coord():
        q = draw(st.integers(0, p))
        if draw(st.booleans()):
            return TruncSeries.zero(q)
        return entry().truncate(q)
    host = AbModule([[entry() for _ in range(k)] for _ in range(k)])
    return ModuleElement(host, [coord() for _ in range(k)])


@settings(PROPS, max_examples=200)
@given(module_and_element(), st.sampled_from([-1, 0, 1, 2, 5]))
def test_fused_action_is_the_composed_action(x, m):
    """(a - m b) x equals mat . x plus the twist minus m b x, composed
    series by series, in every coefficient and precision; the b x term
    limits the precision only when m is nonzero."""
    cap = x.host.prec
    images = smat_vec(x.host.a_matrix, x.coords, cap)
    expect = []
    for s, c in zip(images, x.coords):
        s = s + c.twist(cap=cap)
        if m:
            s = s - c.shift(1, cap=cap).scale(m)
        expect.append(as_pair(s))
    got = x.act_a(m).coords
    assert [as_pair(s) for s in got] == expect
    for s in got:
        assert_integer_form(s)


def test_fused_action_on_a_coordinate_without_coefficients():
    """A precision-0 coordinate limits its row to the twist's 2 orders,
    and to b x's 1 order when m is nonzero."""
    host = AbModule([[TruncSeries.zero(4)]])
    x = ModuleElement(host, [TruncSeries.zero(0)])
    assert [x.act_a(m).coords[0].prec for m in (0, 1, -1)] == [2, 1, 1]
