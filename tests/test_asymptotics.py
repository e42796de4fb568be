"""Differential systems, embeddings and log-power expansions."""

import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from abmod import (DiffSystem, HostMismatch, NoEmbeddingFound, NotAStable,
                   TruncSeries, ValidationFailed, bernstein_polynomial,
                   embed_into_xi, from_differential_system, module_e_lambda,
                   realize_expansion, singular_term_report, xi_module)
from abmod import asymptotics, decomposition
from abmod.asymptotics import LogPowerFunction, realize_function
from abmod.decomposition import class_mod_z
from abmod.frescos import FrescoPresentation, fresco_from_presentation
from abmod.modules import AbModule, build_xi_tensor, direct_sum
from abmod.operators import op_normalize
from abmod.ratpoly import RationalPolynomial
from abmod.saturation import require_geometric, saturate

from strategies import geometric_fresco

P = 16
PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=25)


class TestFromDifferentialSystem:
    def test_constant_scalar(self):
        m = from_differential_system(DiffSystem([[[F(1, 2)]]]), P)
        assert m.a_matrix[0][0] == TruncSeries([0, F(1, 2)], P)
        assert bernstein_polynomial(m).roots == ((F(-1, 2), 1),)

    def test_constant_jordan_block(self):
        a = DiffSystem([[[F(1, 2)], [1]], [[0], [F(1, 2)]]])
        m = from_differential_system(a, P)
        assert m.a_matrix[0][1] == TruncSeries([0, 1], P)
        assert bernstein_polynomial(m).roots == ((F(-1, 2), 2),)

    def test_linear_entry_closed_form(self):
        m = from_differential_system(DiffSystem([[[F(1, 2), 1]]]), P)
        # X (1 - b) = 1/2 + b, so bX = b(1/2 + 3/2 b + 3/2 b^2 + ...)
        expected = TruncSeries([0, F(1, 2)] + [F(3, 2)] * (P - 2), P)
        assert m.a_matrix[0][0] == expected

    def test_defining_equation_holds(self):
        sys_ = DiffSystem([[[F(1, 3), 2], [0, 1]], [[1], [F(1, 2), 0, 1]]])
        m = from_differential_system(sys_, P)
        for j in range(2):
            lhs = m.basis(j).act_a()
            acc = m.zero()
            for i in range(2):
                h = m.zero()
                for c in reversed(sys_.entries[i][j]):
                    h = h.act_a() + h.act_b()
                    if c:
                        h = h + m.basis(i).scale(c)
                acc = acc + h
            assert lhs == acc.act_b()
        assert m.is_simple_pole()

    def test_diagonal_spectrum(self):
        sys_ = DiffSystem([[[F(1, 2)], [0]], [[0], [F(2, 3)]]])
        m = from_differential_system(sys_, P)
        poly = bernstein_polynomial(m)
        assert poly.roots == ((F(-2, 3), 1), (F(-1, 2), 1))

    def test_json_round_trip(self):
        sys_ = DiffSystem([[[F(1, 2), 1], [0]], [[1], [F(2, 3)]]])
        again = DiffSystem.from_json(sys_.to_json())
        assert again.entries == sys_.entries
        assert sys_.to_json()["size"] == 2

    def test_saturation_cap_is_respected(self):
        from abmod import NotRegular, saturate
        from abmod.frescos import FrescoPresentation, fresco_from_presentation
        fr = fresco_from_presentation(
            FrescoPresentation([(F(9, 2), 1), (F(5, 2), 1), (F(1, 2),)], P), P)
        assert saturate(fr.module).steps == 2
        with pytest.raises(NotRegular):
            saturate(fr.module, max_iter=1)


class TestEmbedding:
    def test_rank_one_shift(self):
        emb = embed_into_xi(module_e_lambda(F(3, 2), P))
        assert emb.depth == 0 and emb.dim_v == 1
        assert emb.classes == (F(1, 2),)
        col = emb.matrix[0][0]
        assert col.known_valuation() == 1
        assert emb.check_equivariance()

    def test_theme_embeds_with_one_dimensional_v(self):
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], P), P)
        emb = embed_into_xi(fr.module)
        assert emb.dim_v == 1 and emb.depth == 1
        assert emb.check_equivariance()

    def test_xi_embeds_into_itself(self):
        xi = xi_module(F(1, 2), 1, P)
        emb = embed_into_xi(xi)
        assert emb.depth == 1 and emb.dim_v == 1

    def test_search_runs_once_per_module(self):
        xi = xi_module(F(1, 2), 1, P)
        assert embed_into_xi(xi) is embed_into_xi(xi)
        assert embed_into_xi(xi, depth=1) is not embed_into_xi(xi)

    def test_isotypic_sum_needs_bigger_v(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 2), P))
        emb = embed_into_xi(m)
        assert emb.depth == 0 and emb.dim_v == 2

    def test_rank_zero_module_has_the_empty_embedding(self):
        emb = embed_into_xi(AbModule([], prec=P))
        assert (emb.classes, emb.depth, emb.dim_v, emb.matrix) \
            == ((), 0, 1, ())
        assert emb.target.rank == 0 and emb.target.xi.legend == ()
        assert emb.check_equivariance()

    @pytest.mark.parametrize("module", [
        fresco_from_presentation(FrescoPresentation(
            [(F(3, 2), 1), (F(1, 2),)], P), P).module,
        xi_module(F(1, 3), 2, P)], ids=["theme", "xi_1/3_depth_2"])
    def test_perturbed_embedding_fails_its_check(self, module):
        """Adding b^m to an entry in a row of log index >= 1 breaks the
        a-action: a (b^m e_i) has the component alpha b^(m+1) on e_(i-1),
        and Phi(a e_j) keeps row i-1 as it was."""
        emb = embed_into_xi(module)
        rows = [i for i, (_, log, _) in enumerate(emb.target.xi.legend)
                if log >= 1]
        assert rows and emb.check_equivariance()
        for i in rows:
            for j in range(module.rank):
                for m in range(emb.matrix[i][j].prec - 1):
                    assert not perturbed(emb, i, j, m).check_equivariance()

    def test_flat_embedding_fails_for_log_modules(self):
        with pytest.raises(NoEmbeddingFound):
            embed_into_xi(xi_module(F(1, 2), 1, P), depth=0)

    def test_candidates_are_the_units_and_one_two_three(self, monkeypatch):
        # the pairs (0, 1) and (0, 2) leave 1 and 2 live parameters; at
        # depth 0 a unit candidate fills one row of the rank-2 source's
        # image, so only (1) and then (1, 2) are checked
        calls = []
        rank = asymptotics._series_matrix_rank

        def counted(*args):
            calls.append(args)
            return rank(*args)
        monkeypatch.setattr(asymptotics, "_series_matrix_rank", counted)
        with pytest.raises(NoEmbeddingFound):
            embed_into_xi(xi_module(F(1, 2), 1, P), depth=0)
        assert len(calls) == 2

    def test_rank_four_fresco_solves_blocks_and_skips_unit_candidates(
            self, monkeypatch):
        """Depths 0-2 need one block solve per class (1/2, 1/3) each, into
        targets of rank depth + 1; below depth 3 no unit candidate of the
        rank-4 source can have full rank, so each (depth, dim V) pair
        checks only (1, 2, 3, ...): 5 pairs, 5 checks (52 when every unit
        candidate was built)."""
        ranks, solves = [], []
        rank, solve = (asymptotics._series_matrix_rank,
                       asymptotics._solve_equivariance)

        def counted_rank(*args):
            ranks.append(args)
            return rank(*args)

        def counted_solve(source, target):
            solves.append(target.rank)
            return solve(source, target)
        monkeypatch.setattr(asymptotics, "_series_matrix_rank", counted_rank)
        monkeypatch.setattr(asymptotics, "_solve_equivariance", counted_solve)
        fr = fresco_from_presentation(FrescoPresentation(
            [(F(7, 2), 1), (F(5, 2), TruncSeries([1, 1], P)), (F(3, 2), 1),
             (F(1, 3), 1)], P), P)
        emb = embed_into_xi(fr.module)
        assert (emb.depth, emb.dim_v) == (2, 3)
        assert len(ranks) == 5
        assert solves == [1, 1, 2, 2, 3, 3]

    def test_image_bernstein_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "_image_bernstein",
                            lambda emb: RationalPolynomial.one())
        with pytest.raises(ValidationFailed) as err:
            embed_into_xi(module_e_lambda(F(3, 2), P))
        assert "(0, 1)" in str(err.value)

    def test_failed_equivariance_check_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotics.Embedding, "check_equivariance",
                            lambda emb: False)
        with pytest.raises(ValidationFailed) as err:
            embed_into_xi(module_e_lambda(F(3, 2), P))
        assert "not equivariant" in str(err.value)
        assert "(0, 1)" in str(err.value)

    def test_apply_rejects_foreign_elements(self):
        emb = embed_into_xi(module_e_lambda(F(3, 2), P))
        with pytest.raises(HostMismatch):
            emb.apply(module_e_lambda(F(3, 2), P).basis(0))

    def test_search_start_falls_back_when_part_fails(self, monkeypatch):
        def unstable(module):
            raise NotAStable("forced")
        monkeypatch.setattr(asymptotics, "semisimple_part", unstable)
        line = module_e_lambda(F(1, 2), P)
        emb = embed_into_xi(direct_sum(line, line))
        assert emb.depth == 0 and emb.dim_v == 2
        assert emb.check_equivariance()

    def test_search_does_not_hide_other_errors(self, monkeypatch):
        def broken(module):
            raise TypeError("a bug, not a fallback")
        monkeypatch.setattr(asymptotics, "semisimple_part", broken)
        with pytest.raises(TypeError):
            embed_into_xi(module_e_lambda(F(3, 2), P))

    def test_image_generates_same_bernstein(self):
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], P), P)
        emb = embed_into_xi(fr.module)
        from abmod.lattices import lattice_reduce, sub_module_structure
        cols = [emb.apply(fr.module.basis(j)) for j in range(2)]
        sub = sub_module_structure(lattice_reduce(cols, host=emb.target))
        assert bernstein_polynomial(sub.module, mode="characteristic") \
            == bernstein_polynomial(fr.module, mode="characteristic")


def four_product_check(emb):
    """The equivariance check that computes Phi(e_j) for each comparison."""
    for j in range(emb.source.rank):
        e = emb.source.basis(j)
        if not emb.apply(e.act_a()).eq_shared(emb.apply(e).act_a()):
            return False
        if not emb.apply(e.act_b()).eq_shared(emb.apply(e).act_b()):
            return False
    return True


def perturbed(emb, i, j, m):
    """The embedding with 1 added to the b^m coefficient of entry (i, j)."""
    rows = [list(row) for row in emb.matrix]
    coeffs = list(rows[i][j].coeffs)
    coeffs[m] += 1
    rows[i][j] = TruncSeries(coeffs, rows[i][j].prec)
    return dataclasses.replace(emb, matrix=tuple(map(tuple, rows)))


@PROPS
@given(geometric_fresco(max_prec=10), st.data())
def test_equivariance_check_agrees_with_the_four_product_check(module, data):
    """On the embedding of a random geometric fresco, and on a copy with
    one coefficient perturbed, the check gives the four-product answer."""
    emb = embed_into_xi(module)
    assert emb.check_equivariance() and four_product_check(emb)
    i = data.draw(st.integers(0, emb.target.rank - 1))
    j = data.draw(st.integers(0, module.rank - 1))
    m = data.draw(st.integers(0, emb.matrix[i][j].prec - 1))
    bad = perturbed(emb, i, j, m)
    assert bad.check_equivariance() == four_product_check(bad)


@st.composite
def source_and_xi_shape(draw):
    """A saturated source with its classes, a log depth 0-2 and a dim V
    1-3.  The source is the saturation of a geometric fresco or a direct
    sum of E_lambda, so classes repeat and differ."""
    if draw(st.booleans()):
        module = draw(geometric_fresco(max_prec=10))
    else:
        lams = draw(st.lists(st.sampled_from(
            [F(1, 2), F(3, 2), F(1, 3), F(4, 3), F(1)]), min_size=1,
            max_size=3))
        prec = draw(st.integers(4, 10))
        module = direct_sum(*(module_e_lambda(lam, prec) for lam in lams))
    classes = tuple(sorted({class_mod_z(-v)
                            for v, _ in require_geometric(module)["roots"]}))
    return (saturate(module).module, classes, draw(st.integers(0, 2)),
            draw(st.integers(1, 3)))


def monolithic_solution(src, classes, depth, dim_v):
    target = build_xi_tensor(classes, depth, dim_v, src.prec)
    return target, decomposition._solve_equivariance(src, target)


def coefficients(mat):
    return [(e.coeffs, e.prec) for row in mat for e in row]


@PROPS
@given(source_and_xi_shape())
def test_block_solution_is_the_monolithic_solve(case):
    """The (live, build) assembled from one solve per class is the solve
    into the whole Xi^(N) (x) V: the same free parameters, and the same
    matrix at every unit assignment and at (1, 2, 3, ...)."""
    src, classes, depth, dim_v = case
    live, build = asymptotics._xi_tensor_solution(src, classes, depth, dim_v)
    _, (ref_live, ref_build) = monolithic_solution(src, classes, depth, dim_v)
    assert live == ref_live
    assigns = [{q: F(1)} for q in live]
    assigns.append({q: F(i + 1) for i, q in enumerate(live)})
    for assign in assigns:
        assert coefficients(build(assign)) == coefficients(ref_build(assign))


@PROPS
@given(source_and_xi_shape())
def test_unit_candidates_have_rank_at_most_depth_plus_one(case):
    """The premise of the rank screen, on the monolithic solve: a unit
    assignment is nonzero on one block of N + 1 rows only."""
    src, classes, depth, dim_v = case
    target, (live, build) = monolithic_solution(src, classes, depth, dim_v)
    for q in live:
        assert asymptotics._series_matrix_rank(
            build({q: F(1)}), target.rank, src.prec) <= depth + 1


class TestRealize:
    def test_basis_vector(self):
        xi0 = xi_module(F(1, 2), 0, P)
        terms = realize_expansion(xi0.basis(0), 4)
        assert [(t.alpha, t.m, t.j, t.coeff) for t in terms] == [
            (F(1, 2), 0, 0, F(1))]
        assert terms[0].render() == "1*s^(-1/2)"

    def test_primitive_of_inverse_sqrt(self):
        xi0 = xi_module(F(1, 2), 0, P)
        terms = realize_expansion(xi0.basis(0).act_b(), 4)
        assert [(t.m, t.coeff) for t in terms] == [(1, F(2))]
        assert terms[0].render() == "2*s^(1/2)"

    def test_log_direction(self):
        xi1 = xi_module(F(1, 2), 1, P)
        terms = realize_expansion(xi1.basis(1), 4)
        assert [(t.m, t.j, t.coeff) for t in terms] == [(0, 1, F(1, 2))]
        assert terms[0].render() == "(1/2)*s^(-1/2)*log(s)"

    def test_multiplication_by_s_intertwines(self):
        xi1 = xi_module(F(1, 2), 1, P)
        x = xi1.element([TruncSeries([1, 2, 0, 1], P), TruncSeries([0, 3], P)])
        lhs = realize_function(x.act_a(), 12)
        rhs = realize_function(x, 12).mul_s()
        assert lhs.eq_through_order(rhs, 10)

    def test_primitive_intertwines(self):
        xi1 = xi_module(F(2, 5), 1, P)
        x = xi1.element([TruncSeries([1, -1], P), TruncSeries([2], P)])
        lhs = realize_function(x.act_b(), 12)
        rhs = realize_function(x, 12).integrate()
        assert lhs.eq_through_order(rhs, 10)

    def test_closed_form_integral_of_log_terms(self):
        # int_0^s t^(a-1) log t = s^a/a log s - s^a/a^2 for a = 3/2
        f = LogPowerFunction({(F(1, 2), 1, 1): F(1)}, 8)
        out = f.integrate()
        assert out.terms == {(F(1, 2), 2, 1): F(2, 3),
                             (F(1, 2), 2, 0): F(-4, 9)}


class TestWordOracle:
    def test_normal_form_action_matches_symbolic_calculus(self):
        rng = random.Random(99)
        xi = xi_module(F(1, 2), 2, 24)
        v = xi.element([TruncSeries([1, 2], 24), TruncSeries([0, 1], 24),
                        TruncSeries([3], 24)])
        fv = realize_function(v, 20)
        for _ in range(25):
            word = []
            for _ in range(rng.randint(1, 6)):
                letter = rng.choice(["a", "b", "u"])
                if letter == "u":
                    word.append(TruncSeries(
                        [1, rng.randint(-2, 2), rng.randint(-2, 2)], 24))
                else:
                    word.append(letter)
            op = op_normalize(word, 24)
            via_module = realize_function(v.act(op), 20)
            f = fv
            for letter in reversed(word):
                if letter == "a":
                    f = f.mul_s()
                elif letter == "b":
                    f = f.integrate()
                else:
                    f = f.apply_series(letter)
            assert via_module.eq_through_order(f, 10)


class TestSingularTermReport:
    def test_worked_theme(self):
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], P), P)
        rep = singular_term_report(fr)
        assert len(rep.classes) == 1
        c = rep.classes[0]
        assert c.alpha == F(1, 2) and c.nilpotent_order == 2
        assert c.terms == ((F(-1), 0, 1),)

    def test_flat_module_has_no_logarithm(self):
        rep = singular_term_report(module_e_lambda(F(1, 2), P))
        c = rep.classes[0]
        assert c.nilpotent_order == 1
        assert c.terms == ((F(-1), 0, 0),)

    def test_alpha_one_log_power_convention(self):
        rep = singular_term_report(module_e_lambda(F(1), P))
        c = rep.classes[0]
        assert c.alpha == F(1) and c.nilpotent_order == 1
        assert c.terms == ((F(0), 0, 1),)
