"""Normal forms and multiplication in the operator algebra."""

import random
from fractions import Fraction as F

import pytest

from abmod import AbOperator, ADegreeExceeded, TruncSeries, op_normalize
from abmod.modules import xi_module


P = 12


def gen(letter):
    return {"a": AbOperator.gen_a(P), "b": AbOperator.gen_b(P)}[letter]


class TestNormalize:
    def test_relation(self):
        # a b = b a + b^2
        assert op_normalize("ab", P) == op_normalize("ba", P) + AbOperator(
            {2: (F(1),)}, P)

    def test_a_squared_b(self):
        # a^2 b = b a^2 + 2 b^2 a + 2 b^3
        lhs = op_normalize("aab", P)
        rhs = AbOperator({1: (0, 0, 1), 2: (0, 2), 3: (2,)}, P)
        assert lhs == rhs

    def test_series_commutation(self):
        # a (1+b) = (1+b) a + b^2
        s = TruncSeries([1, 1], P)
        lhs = op_normalize(["a", s], P)
        rhs = op_normalize([s, "a"], P) + AbOperator({2: (F(1),)}, P)
        assert lhs == rhs

    def test_idempotent(self):
        word = ["a", "b", "a", TruncSeries([2, -1], P)]
        once = op_normalize(word, P)
        assert op_normalize([once], P) == once

    def test_relation_normalizes_to_zero(self):
        a, b = gen("a"), gen("b")
        assert (a * b - b * a - b * b).is_zero()


class TestMul:
    def test_two_factors(self):
        a, b = gen("a"), gen("b")
        out = (a - b.scale(2)) * (a - b)
        # a^2 - 3 b a + b^2
        assert out == AbOperator({0: (0, 0, 1), 1: (0, -3), 2: (1,)}, P)

    def test_one_is_identity(self):
        x = op_normalize(["a", "b", TruncSeries([1, 2], P)], P)
        assert x * AbOperator.one(P) == x

    def test_already_normal(self):
        b_then_a = op_normalize("ba", P)
        assert b_then_a == AbOperator({1: (0, 1)}, P)

    def test_power_identity(self):
        # a^m b = b (a+b)^m for small m
        a, b = gen("a"), gen("b")
        for m in range(6):
            lhs = op_normalize(["a"] * m + ["b"], P)
            assert lhs == b * (a + b) ** m

    def test_associative_random(self):
        rng = random.Random(5)

        def rand_op():
            word = []
            for _ in range(rng.randint(1, 3)):
                word.append(rng.choice(
                    ["a", "b", TruncSeries([rng.randint(1, 3),
                                            rng.randint(-2, 2)], P)]))
            return op_normalize(word, P)

        for _ in range(20):
            x, y, z = rand_op(), rand_op(), rand_op()
            assert (x * y) * z == x * (y * z)

    def test_degree_bound_is_hard(self):
        a = AbOperator.gen_a(P, a_bound=3)
        with pytest.raises(ADegreeExceeded):
            _ = a * a * a * a


class TestLeftForm:
    def test_already_in_shape(self):
        x = AbOperator({0: (0, 0, 1), 1: (0, -3), 2: (1,)}, P)
        left = x.to_left_form()
        assert [(m, t.render()) for m, t in left] == [
            (2, "1"), (1, "-3*b"), (0, "b^2")]

    def test_noncommutative_expansion(self):
        a, b = gen("a"), gen("b")
        s = TruncSeries([1, 1], P)
        x = (a - b) * AbOperator.from_series(s) * (a - b)
        left = x.to_left_form()
        assert [(m, t.render()) for m, t in left] == [
            (2, "1 + b"), (1, "-2*b - b^2"), (0, "-b^3")]

    def test_series_alone(self):
        s = TruncSeries([1, 0, 5], P)
        left = AbOperator.from_series(s).to_left_form()
        assert len(left) == 1 and left[0][0] == 0 and left[0][1] == s


class TestEvaluationHomomorphism:
    def test_acting_with_product_equals_composed_action(self):
        rng = random.Random(23)
        xi = xi_module(F(1, 2), 2, P)
        v = xi.element([TruncSeries([1, 2], P),
                        TruncSeries([0, 1], P),
                        TruncSeries([3], P)])
        for _ in range(15):
            def rand_op():
                word = [rng.choice(["a", "b",
                                    TruncSeries([1, rng.randint(-2, 2)], P)])
                        for _ in range(rng.randint(1, 3))]
                return op_normalize(word, P)
            x, y = rand_op(), rand_op()
            assert v.act(x * y) == v.act(y).act(x)


class TestRendering:
    def test_text_form(self):
        x = AbOperator({2: (0, 1), 3: (2,)}, P)
        assert x.render() == "b^2*a + 2*b^3"

    @pytest.mark.parametrize("terms, text", [
        ({}, "0"),
        ({0: (1,)}, "1"),
        ({0: (-1,)}, "-1"),
        ({0: (0, -1)}, "-a"),
        ({1: (-1,)}, "-b"),
        ({3: (0, 0, 1)}, "b^3*a^2"),
        ({3: (0, 0, F(-3, 2))}, "-3/2*b^3*a^2"),
        ({0: (-2, 0, -1), 1: (F(1, 2),)}, "-a^2 - 2 + 1/2*b"),
        ({0: (-2, 0, 1), 2: (F(1, 3), -1)}, "a^2 - 2 - b^2*a + 1/3*b^2"),
    ], ids=["zero", "one", "minus_one", "minus_a", "minus_b", "unit_bqam",
            "nonunit_bqam", "negative_first", "b_ascending_a_descending"])
    def test_planted_forms(self, terms, text):
        """Terms run b^q ascending, a^m descending within each q; a unit
        coefficient is dropped before a factor and kept alone."""
        assert AbOperator(terms, P).render() == text

    def test_json(self):
        x = AbOperator({0: (0, 1), 1: (F(-1, 2),)}, P)
        assert x.to_json() == [{"q": 0, "poly": ["0", "1"]},
                               {"q": 1, "poly": ["-1/2"]}]
