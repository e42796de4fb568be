"""Saturation, Bernstein polynomials and the geometric predicate."""

import random
from fractions import Fraction as F

import pytest

from abmod import (HostMismatch, NotRegular, TruncSeries,
                   bernstein_polynomial, build_xi_tensor, is_geometric, module_e_lambda,
                   module_from_matrix, saturate, xi_module)
from abmod.frescos import FrescoPresentation, fresco_from_presentation
from abmod.lattices import _reduce_vectors
from abmod.modules import module_from_left_form

P = 16


def theme_module(l1=F(3, 2), l2=F(1, 2), prec=P):
    """Companion module of (a - l1 b)(a - l2 b)."""
    t1 = TruncSeries([0, -(l1 + l2)], prec)
    t0 = TruncSeries([0, 0, l2 * (l1 - 1)], prec)
    return module_from_left_form(
        [(2, TruncSeries.one(prec)), (1, t1), (0, t0)], prec)


class TestSaturate:
    def test_simple_pole_is_fixed(self):
        xi = xi_module(F(1, 2), 1, P)
        sat = saturate(xi)
        assert sat.steps == 0
        assert sat.module.same_action(xi)

    def test_theme_needs_one_step(self):
        m = theme_module()
        sat = saturate(m)
        assert sat.steps == 1
        assert sat.module.is_simple_pole()
        assert sat.module.rank == 2

    def test_not_regular(self):
        with pytest.raises(NotRegular):
            saturate(module_from_matrix([[TruncSeries.one(P)]]))

    def test_idempotent(self):
        sat = saturate(theme_module())
        again = saturate(sat.module)
        assert again.steps == 0
        assert again.module.same_action(sat.module)

    def test_inclusion_is_equivariant(self):
        m = theme_module()
        sat = saturate(m)
        for j in range(m.rank):
            e = m.basis(j)
            assert sat.include(e.act_a()) == sat.include(e).act_a()
            assert sat.include(e.act_b()) == sat.include(e).act_b()

    def test_include_rejects_foreign_elements(self):
        sat = saturate(theme_module())
        with pytest.raises(HostMismatch):
            sat.include(theme_module().basis(0))
        with pytest.raises(HostMismatch):
            sat.include(module_e_lambda(F(1, 2), P).basis(0))

    def test_index_is_pure_b_power_per_direction(self):
        # elementary divisors of the inclusion are pure powers of b
        m = theme_module()
        sat = saturate(m)
        cols = [tuple(sat.inclusion[i][j] for i in range(m.rank))
                for j in range(m.rank)]
        basis, pivots, _ = _reduce_vectors(cols, m.rank, sat.module.prec)
        assert len(basis) == m.rank
        for vec, (p, v) in zip(basis, pivots):
            assert vec[p] == TruncSeries.b_power(v, vec[p].prec)


class TestMemo:
    def test_derived_once_per_module(self):
        m = theme_module()
        assert saturate(m) is saturate(m)
        assert bernstein_polynomial(m) is bernstein_polynomial(m, "minimal")
        assert saturate(theme_module()) is not saturate(m)

    def test_derived_keys_fill_defaults_and_reject_unknown_keywords(self):
        m = theme_module()
        poly = bernstein_polynomial(m)
        assert bernstein_polynomial(m, "minimal") is poly
        assert bernstein_polynomial(m, mode="minimal") is poly
        assert bernstein_polynomial(m, mode="characteristic") is not poly
        with pytest.raises(TypeError):
            bernstein_polynomial(m, modus="minimal")
        with pytest.raises(TypeError):
            bernstein_polynomial(m, "minimal", mode="minimal")

    def test_cap_below_cached_steps_raises_as_a_fresh_run(self):
        m = theme_module()
        s = saturate(m).steps
        assert s >= 1
        with pytest.raises(NotRegular) as cached:
            saturate(m, max_iter=s - 1)
        with pytest.raises(NotRegular) as fresh:
            saturate(theme_module(), max_iter=s - 1)
        assert str(cached.value) == str(fresh.value)
        assert saturate(m, max_iter=s) is saturate(m)

    def test_negative_cap_is_rejected_before_the_memo(self):
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2), 1)], P), P)
        saturate(fr.module)
        with pytest.raises(ValueError):
            saturate(fr.module, max_iter=-1)


class TestBernstein:
    def test_rank_one(self):
        assert bernstein_polynomial(module_e_lambda(F(1, 2), P)).render() \
            == "(x + 1/2)"

    def test_random_rank_one(self):
        rng = random.Random(31)
        for _ in range(10):
            lam = F(rng.randint(-20, 20), rng.randint(1, 9))
            poly = bernstein_polynomial(module_e_lambda(lam, P))
            assert poly.roots == ((-lam, 1),)

    def test_xi_power_law(self):
        poly = bernstein_polynomial(xi_module(F(1, 2), 1, P))
        assert poly.roots == ((F(-1, 2), 2),)

    def test_theme_characteristic(self):
        poly = bernstein_polynomial(theme_module(), mode="characteristic")
        assert poly.roots == ((F(-1, 2), 2),)

    def test_minimal_vs_characteristic(self):
        m = build_xi_tensor([F(1, 2)], 0, 2, P)   # two copies of the same line
        assert bernstein_polynomial(m, mode="minimal").degree() == 1
        assert bernstein_polynomial(m, mode="characteristic").degree() == 2

    def test_same_roots_through_saturation(self):
        m = theme_module()
        sat = saturate(m)
        assert bernstein_polynomial(m, mode="characteristic") \
            == bernstein_polynomial(sat.module, mode="characteristic")

    def test_rank_zero(self):
        from abmod.modules import AbModule
        assert bernstein_polynomial(AbModule([], prec=P)).degree() == 0


class TestGeometric:
    def test_xi_is_geometric(self):
        ok, cert = is_geometric(build_xi_tensor([F(1, 2)], 1, 1, P))
        assert ok and cert["roots"] == ((F(-1, 2), 2),)

    def test_zero_root_rejected(self):
        ok, cert = is_geometric(module_e_lambda(0, P))
        assert not ok and "non-negative" in cert["reason"]

    def test_positive_root_rejected(self):
        ok, _ = is_geometric(module_e_lambda(-1, P))
        assert not ok

    def test_irrational_spectrum_reports_unsplit(self):
        # a e1 = 2 b e2, a e2 = b e1: residue [[0,2],[1,0]], min poly x^2 - 2
        z = TruncSeries.zero(P)
        b = TruncSeries.b_power(1, P)
        m = module_from_matrix([[z, b.scale(2)], [b, z]])
        ok, cert = is_geometric(m)
        assert not ok and "unsplit" in cert["reason"]
