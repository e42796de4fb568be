"""Saturation, Bernstein polynomials and the geometric predicate."""

import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from abmod import (AbmodError, HostMismatch, NotRegular, PrecisionExhausted,
                   RationalPolynomial, TruncSeries, bernstein_polynomial,
                   build_xi_tensor, embed_into_xi, higher_bernstein,
                   is_geometric, module_e_lambda, module_from_matrix,
                   primitive_split, saturate, semisimple_filtration,
                   semisimple_part, xi_module)
from abmod import saturation
from abmod.frescos import FrescoPresentation, fresco_from_presentation
from abmod.lattices import _reduce_vectors, full_lattice, quotient_module
from abmod.modules import AbModule, module_from_left_form

from strategies import geometric_fresco

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


def reference_first_step(module):
    """The a-matrix and inclusion the saturation chain computes at m = 0,
    as coefficient and precision tables: the coordinates of the a-images
    of the identity basis, and of the basis itself, in the full lattice."""
    lat = full_lattice(module)
    images = [lat.member_coords(g.act_a()) for g in lat.basis_elements()]
    incl = [lat.member_coords(e) for e in module.basis_elements()]
    return as_table(zip(*images)), as_table(zip(*incl))


def as_table(rows):
    return [[(e.coeffs, e.prec) for e in row] for row in rows]


def simple_pole_modules(sat_module, alpha, depth):
    """E#, an expansion module, an E_lambda and the quotients of E# by its
    semi-simple part and by each class's off-class part, where these are
    proper and computable."""
    out = [sat_module, xi_module(alpha, depth, sat_module.prec),
           module_e_lambda(alpha + 1, sat_module.prec)]
    try:
        part, _ = semisimple_part(sat_module)
        if 0 < part.rank < sat_module.rank:
            out.append(quotient_module(sat_module, part).module)
        for root, _ in bernstein_polynomial(sat_module).roots:
            split = primitive_split(sat_module, {-root})
            if split.quotient is not None:
                out.append(split.part_module)
    except AbmodError as exc:
        event(f"quotients stopped by {type(exc).__name__}")
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(geometric_fresco(min_prec=2), st.sampled_from([F(1, 2), F(1, 3), F(1)]),
       st.integers(0, 2))
def test_a_simple_pole_module_is_its_own_saturation(module, alpha, depth):
    """saturate(E#) is E#, with 0 steps and the identity inclusion; on a
    simple-pole module the result equals the chain's m = 0 step, and the
    chain's step function never runs."""
    try:
        sat = saturate(module)
    except AbmodError as exc:
        event(type(exc).__name__)
        return
    with mock.patch.object(saturation, "_shifted_basis_images",
                           side_effect=AssertionError("chain ran")):
        mods = simple_pole_modules(sat.module, alpha, depth)
        again = saturate(sat.module)
        assert again.module is sat.module and again.steps == 0
        assert again is saturate(sat.module)
        for m in mods:
            res = saturate(m)
            assert res.module is m and res.steps == 0 and res.source is m
            assert (as_table(m.a_matrix), as_table(res.inclusion)) \
                == reference_first_step(m)
    event(f"{len(mods)} simple-pole modules")


class TestSimplePole:
    def test_rank_zero_gives_the_trivial_answers(self):
        m = AbModule([], prec=P)
        sat = saturate(m)
        assert (sat.module, sat.inclusion, sat.steps) == (m, (), 0)
        one = RationalPolynomial.one()
        for mode in ("minimal", "characteristic"):
            poly = bernstein_polynomial(m, mode=mode)
            assert (poly.coeffs, poly.roots, poly.unsplit) \
                == (one.coeffs, one.roots, one.unsplit)
        part, diags = semisimple_part(m)
        assert (part.rank, part.basis, diags) == (0, (), [])
        filt = semisimple_filtration(m)
        assert (filt.steps, filt.levels, filt.diagnostics) == ((), (), [])
        split = primitive_split(m, {F(1, 2)})
        assert (split.not_part.rank, split.quotient, split.diagnostics) \
            == (0, None, [])
        assert split.part_module is m
        hb = higher_bernstein(m)
        assert (hb.classes, hb.assembled, hb.diagnostics) == ((), (), [])
        assert hb.total == one and hb.product_check and hb.roots_simple
        emb = embed_into_xi(m)
        assert (emb.matrix, emb.depth, emb.dim_v, emb.target.rank) \
            == ((), 0, 1, 0)

    def test_zero_cap_saturates_only_a_simple_pole_module(self):
        xi = xi_module(F(1, 2), 1, P)
        assert saturate(xi, max_iter=0).steps == 0
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2), 1)], P), P)
        with pytest.raises(NotRegular):
            saturate(fr.module, max_iter=0)


class TestRankLoss:
    """E c E# c E[b^-1]: a step that reduces to a smaller rank has lost
    generators to vanished coefficients, so it raises instead of
    reporting a saturation of the wrong rank."""

    FACTORS = [(F(7, 3), [1, 2, F(-1, 3)]), (3, [1, 2, 1]), (F(1, 2), [1, 2])]

    def module(self, prec):
        pres = FrescoPresentation(
            [(lam, TruncSeries(unit, prec)) for lam, unit in self.FACTORS],
            prec)
        return fresco_from_presentation(pres, prec).module

    def test_low_precision_raises_and_names_the_step(self):
        with pytest.raises(PrecisionExhausted,
                           match=r"saturation step 2 has rank 2 < module "
                                 r"rank 3"):
            saturate(self.module(2))

    def test_enough_precision_keeps_the_rank(self):
        sat = saturate(self.module(16))
        assert (sat.steps, sat.module.rank) == (2, 3)


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
