"""Truncated series arithmetic and its ring properties."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from abmod import TruncSeries, NotAUnit, PrecisionExhausted
from abmod.exprparse import parse_poly
from abmod.ratpoly import pnorm, prender
from abmod.series import rat, rat_str, render_terms


def ts(coeffs, prec=8):
    return TruncSeries(coeffs, prec)


class TestRationals:
    def test_parse_and_render(self):
        assert rat("-1/2") == F(-1, 2)
        assert rat_str(F(-1, 2)) == "-1/2"
        assert rat_str(F(6, 2)) == "3"
        assert rat(3) == F(3)

    def test_reduced_form(self):
        x = rat("4/6")
        assert (x.numerator, x.denominator) == (2, 3)


class TestMul:
    def test_hand_expansion(self):
        # (1+2b)(1-b) = 1 + b - 2b^2
        out = ts([1, 2]) * ts([1, -1])
        assert out == ts([1, 1, -2])

    def test_identity(self):
        s = ts([3, F(1, 2), 0, 5])
        assert s * TruncSeries.one(8) == s

    def test_b_times_b_precision(self):
        out = TruncSeries.b_power(1, 6) * TruncSeries.b_power(1, 9)
        assert out.prec == 6
        assert out == TruncSeries.b_power(2, 6)

    def test_min_precision_rule(self):
        out = ts([1, 1], 5) * ts([1, 1], 9)
        assert out.prec == 5


class TestInvert:
    def test_geometric_series(self):
        inv = ts([1, 1]).invert()
        assert inv == ts([1, -1, 1, -1, 1, -1, 1, -1])

    def test_constant(self):
        assert ts([2]).invert() == ts([F(1, 2)])

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            ts([0, 1]).invert()

    def test_round_trip_random_units(self):
        rng = random.Random(7)
        for _ in range(25):
            s = ts([rng.randint(1, 5)] + [F(rng.randint(-4, 4), rng.randint(1, 3))
                                          for _ in range(7)])
            assert s * s.invert() == TruncSeries.one(8)


class TestDerivative:
    def test_polynomial(self):
        assert ts([1, 1, 1], 3).derivative() == ts([1, 2], 2)

    def test_constant(self):
        assert ts([5], 4).derivative().is_zero_known()

    def test_exponential_like(self):
        fact = [F(1)]
        for k in range(1, 5):
            fact.append(fact[-1] / k)
        e5 = TruncSeries(fact, 5)
        d = e5.derivative()
        assert d.prec == 4
        assert d == TruncSeries(fact[:4], 4)

    def test_precision_drops_by_one(self):
        assert ts([1, 2, 3], 3).derivative().prec == 2


class TestRingProperties:
    def test_axioms_random(self):
        rng = random.Random(11)

        def rand():
            return ts([F(rng.randint(-5, 5), rng.randint(1, 4))
                       for _ in range(8)])

        for _ in range(30):
            x, y, z = rand(), rand(), rand()
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z

    def test_leibniz(self):
        rng = random.Random(13)
        for _ in range(20):
            x = ts([F(rng.randint(-3, 3)) for _ in range(8)])
            y = ts([F(rng.randint(-3, 3)) for _ in range(8)])
            lhs = (x * y).derivative()
            rhs = x.derivative() * y + x * y.derivative()
            assert lhs == rhs

    def test_valuation_additive(self):
        rng = random.Random(17)
        for _ in range(20):
            v1, v2 = rng.randint(0, 3), rng.randint(0, 3)
            x = TruncSeries([0] * v1 + [rng.randint(1, 4)] +
                            [rng.randint(-3, 3) for _ in range(3)], 10)
            y = TruncSeries([0] * v2 + [rng.randint(1, 4)] +
                            [rng.randint(-3, 3) for _ in range(3)], 10)
            assert (x * y).known_valuation() == v1 + v2


class TestPrecisionBookkeeping:
    def test_shift_gains_precision(self):
        s = ts([1, 2], 4)
        assert s.shift(2).prec == 6
        assert s.shift(2) == TruncSeries([0, 0, 1, 2], 6)

    def test_twist_gains_one(self):
        s = ts([1, 2, 3], 4)
        t = s.twist()
        assert t.prec == 5
        # b^2 * (2 + 6b) = 2b^2 + 6b^3
        assert t == TruncSeries([0, 0, 2, 6], 5)

    def test_divide_bpow(self):
        s = TruncSeries([0, 0, 3, 4], 6)
        d = s.divide_bpow(2)
        assert d.prec == 4 and d == ts([3, 4], 4)
        with pytest.raises(ValueError):
            ts([1, 0], 4).divide_bpow(1)
        with pytest.raises(PrecisionExhausted):
            TruncSeries([0, 0], 2).divide_bpow(2)

    def test_decided_zero_needs_a_coefficient(self):
        empty = TruncSeries([], 0)
        with pytest.raises(PrecisionExhausted):
            empty.decided_zero()


class TestSerialization:
    def test_json_round_trip(self):
        s = ts([F(1, 2), -2, 0, F(5, 3)], 6)
        assert TruncSeries.from_json(s.to_json()) == s
        assert s.to_json()["prec"] == 6
        assert s.to_json()["coeffs"][0] == "1/2"

    def test_render(self):
        assert ts([1, 1, -2]).render() == "1 + b - 2*b^2"
        assert TruncSeries.zero(4).render() == "0"


COEFFS = st.lists(st.sampled_from(
    [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 3), F(7, 5)]),
    max_size=8)
FORMATS = settings(derandomize=True, database=None, deadline=None,
                   max_examples=200)


class TestRendering:
    @FORMATS
    @given(COEFFS, st.integers(0, 3), st.sampled_from(["b", "z"]))
    def test_series_text_parses_back(self, coeffs, extra, var):
        text = TruncSeries(coeffs, len(coeffs) + extra).render(var)
        assert parse_poly(text, var) == pnorm(coeffs)

    @FORMATS
    @given(COEFFS)
    def test_polynomial_text_parses_back(self, coeffs):
        assert parse_poly(prender(coeffs, "x"), "x") == pnorm(coeffs)

    def test_orders(self):
        c = [F(-1, 2), 0, 1, -3]
        assert TruncSeries(c, 6).render() == "-1/2 + b^2 - 3*b^3"
        assert prender(c) == "-3*x^3 + x^2 - 1/2"

    def test_terms(self):
        assert render_terms([]) == "0"
        assert render_terms([(-2, ["b^2"])]) == "-2*b^2"
        assert render_terms([(-1, []), (1, ["a"]), (F(-1, 3), ["b", "a"])]) \
            == "-1 + a - 1/3*b*a"
