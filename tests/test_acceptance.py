"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
enforces its runtime budget.  All expected values are exact rationals; no
tolerances appear anywhere.
"""

import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from abmod import (DiffSystem, NotAUnit, NotRegular,
                   PrecisionExhausted, RationalPolynomial, TruncSeries,
                   bernstein_polynomial, bernstein_via_formula,
                   build_xi_tensor, class_mod_z, embed_into_xi,
                   from_differential_system, fresco_from_presentation,
                   higher_bernstein, jh_split, lattice_reduce,
                   module_e_lambda, module_from_matrix, primitive_split,
                   saturate, semisimple_filtration, semisimple_part,
                   xi_module)
from abmod.asymptotics import realize_function
from abmod.frescos import FrescoPresentation
from abmod.lattices import sub_module_structure
from abmod.modules import direct_sum
from abmod.operators import op_normalize
from abmod.saturation import is_geometric

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _report(num, desc, t0, budget):
    elapsed = time.time() - t0
    print(f"criterion {num:2d} PASS  ({elapsed:6.2f}s < {budget}s)  {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_xi_bernstein_law():
    t0 = time.time()
    for alpha in (F(1), F(1, 2), F(1, 3), F(2, 5)):
        for depth in range(4):
            poly = bernstein_polynomial(build_xi_tensor([alpha], depth, 1, 12))
            assert poly.roots == ((-alpha, depth + 1),), (alpha, depth)
    _report(1, "xi family Bernstein law (x+alpha)^(N+1)", t0, 1)


def test_criterion_02_worked_theme():
    t0 = time.time()
    prec = 16
    pres = FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], prec)
    fr = fresco_from_presentation(pres, prec)

    poly = bernstein_polynomial(fr.module, mode="characteristic")
    assert poly.roots == ((F(-1, 2), 2),)

    sat = saturate(fr.module)
    assert sat.steps == 1 and sat.module.is_simple_pole()
    emb = embed_into_xi(sat.module, depth=1, dim_v=1)
    det = emb.matrix[0][0] * emb.matrix[1][1] - emb.matrix[0][1] * emb.matrix[1][0]
    assert det.is_unit(), "saturation is isomorphic to the depth-1 xi module"

    part, diags = semisimple_part(fr.module)
    assert not diags and part.rank == 1
    assert bernstein_polynomial(sub_module_structure(part).module).roots \
        == ((F(-3, 2), 1),)

    hb = higher_bernstein(fr)
    c = hb.classes[0]
    assert c.nilpotent_order == 2
    assert [p.roots for _, _, p in c.levels] == [((F(-1, 2), 1),)] * 2
    assert hb.product_check and hb.roots_simple and hb.degrees_non_increasing
    _report(2, "worked theme: B, saturation, S1, levels, product", t0, 1)


def test_criterion_03_rewriting_oracle():
    t0 = time.time()
    prec = 24
    rng = random.Random(20240301)
    xi = xi_module(F(1, 2), 2, prec)
    v = xi.element([TruncSeries([1, 2], prec), TruncSeries([0, 1], prec),
                    TruncSeries([3, 0, -1], prec)])
    base = realize_function(v, 20)
    for _ in range(200):
        word = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("a", "b", "u"))
            if kind == "u":
                word.append(TruncSeries(
                    [1, rng.randint(-2, 2), rng.randint(-2, 2)], prec))
            else:
                word.append(kind)
        op = op_normalize(word, prec)
        via_normal_form = realize_function(v.act(op), 20)
        f = base
        for letter in reversed(word):
            if letter == "a":
                f = f.mul_s()
            elif letter == "b":
                f = f.integrate()
            else:
                f = f.apply_series(letter)
        assert via_normal_form.eq_through_order(f, 10)
    _report(3, "200 random words: normal form vs symbolic calculus", t0, 30)


def _grid():
    return [F(n, 3) for n in range(1, 13)]   # 1/3 .. 4 in steps of 1/3


def _rank3_cases():
    rng = random.Random(77)
    out = []
    for _ in range(25):
        out.append([F(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(3)])
    return out


def test_criterion_04_structure_formula_agreement():
    t0 = time.time()
    prec = 20
    for l1 in _grid():
        for l2 in _grid():
            pres = FrescoPresentation([(l1, 1), (l2,)], prec)
            fr = fresco_from_presentation(pres, prec)
            formula, _ = bernstein_via_formula(pres)
            assert fr.bernstein() == formula, (l1, l2)
    for lams in _rank3_cases():
        pres = FrescoPresentation([(l, 1) for l in lams], prec)
        fr = fresco_from_presentation(pres, prec)
        formula, _ = bernstein_via_formula(pres)
        assert fr.bernstein() == formula, lams
    _report(4, "144 rank-2 + 25 rank-3 presentations match the product formula",
            t0, 60)


def test_criterion_05_exact_sequence_calculus():
    t0 = time.time()
    prec = 20
    up_failures = 0
    cases = [[l1, l2] for l1 in _grid() for l2 in _grid()]
    cases += _rank3_cases()
    for lams in cases:
        pres = FrescoPresentation([(l, 1) for l in lams], prec)
        fr = fresco_from_presentation(pres, prec)
        x = fr.generator.act_a() - fr.generator.act_b().scale(lams[-1])
        sub, quot, rep = jh_split(fr, x)
        assert rep.shifted_down_holds, lams
        assert sub.module.rank + quot.module.rank == fr.module.rank
        # the report must record the printed variant failing whenever it does
        up_product = rep.b_sub.shift(-rep.q).mul(rep.b_quot)
        assert rep.shifted_up_holds == (up_product == rep.b_total)
        if not rep.shifted_up_holds:
            up_failures += 1
    assert up_failures > 0, "the opposite shift should fail somewhere"
    _report(5, f"split identity B_sub(x-q)*B_quot on {len(cases)} cases "
               f"({up_failures} flagged opposite-shift failures)", t0, 60)


def test_criterion_06_decomposition_laws():
    t0 = time.time()
    prec = 16
    suite = [
        [(F(3, 2), 1), (F(1, 3),)],
        [(F(5, 2), 1), (F(7, 3), 1), (F(3, 2),)],
        [(F(4, 3), 1), (F(1, 2),)],
    ]
    for factors in suite:
        fr = fresco_from_presentation(FrescoPresentation(factors, prec), prec)
        total = bernstein_polynomial(fr.module, mode="characteristic")
        for alpha in (F(1, 2), F(1, 3)):
            split = primitive_split(fr.module, {alpha})
            assert not split.diagnostics
            expected = [(v, m) for v, m in total.roots
                        if class_mod_z(-v) == alpha]
            part_poly = bernstein_polynomial(split.part_module,
                                             mode="characteristic")
            assert part_poly == RationalPolynomial.from_roots(expected)
            if split.part_module.rank == 0:
                continue
            filt_part = semisimple_filtration(split.part_module)
            filt_full = semisimple_filtration(fr.module)
            projected = [split.project_lattice(s) for s in filt_full.steps]
            for s_part, s_proj in zip(filt_part.steps, projected):
                assert s_part.eq(s_proj)
    _report(6, "class parts of Bernstein + filtration/split compatibility",
            t0, 60)


def test_criterion_07_ode_bridge():
    t0 = time.time()
    prec = 32
    for alpha in (F(1, 2), F(2, 5)):
        m = from_differential_system(DiffSystem([[[alpha]]]), prec)
        assert m.a_matrix[0][0] == TruncSeries([0, alpha], prec)
        assert bernstein_polynomial(m).roots == ((-alpha, 1),)

        jordan = DiffSystem([[[alpha], [1]], [[0], [alpha]]])
        mj = from_differential_system(jordan, prec)
        assert mj.a_matrix[0][0] == TruncSeries([0, alpha], prec)
        assert mj.a_matrix[0][1] == TruncSeries([0, 1], prec)
        assert mj.a_matrix[1][0].is_zero_known()
        # minimal polynomial of x + (Jordan block alpha): (x + alpha)^2
        assert bernstein_polynomial(mj).roots == ((-alpha, 2),)

        mz = from_differential_system(DiffSystem([[[alpha, 1]]]), prec)
        closed = (TruncSeries([alpha, 1], prec)
                  * TruncSeries([1, -1], prec).invert()).shift(1, cap=prec)
        assert mz.a_matrix[0][0] == closed
    _report(7, "constant and linear systems give the closed-form actions",
            t0, 5)


def test_criterion_08_embeddings_certified():
    t0 = time.time()
    prec = 16
    theme2 = fresco_from_presentation(
        FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], prec), prec)
    theme3 = fresco_from_presentation(
        FrescoPresentation([(F(5, 2), 1), (F(3, 2), 1), (F(1, 2),)], prec), prec)
    theme4 = fresco_from_presentation(
        FrescoPresentation([(F(7, 2), 1), (F(5, 2), 1), (F(3, 2), 1),
                            (F(1, 2),)], prec), prec)
    mixed = fresco_from_presentation(
        FrescoPresentation([(F(3, 2), 1), (F(1, 3),)], prec), prec)
    sylv = module_from_matrix(
        [[TruncSeries([0, F(1, 2)], prec), TruncSeries([0, 1], prec)],
         [TruncSeries.zero(prec), TruncSeries([0, F(1, 3)], prec)]])
    ode = from_differential_system(
        DiffSystem([[[F(1, 2)], [1]], [[0], [F(1, 2)]]]), prec)
    zoo = [
        ("E_1/2", module_e_lambda(F(1, 2), prec), None),
        ("E_3/2", module_e_lambda(F(3, 2), prec), None),
        ("xi_1/2^1", xi_module(F(1, 2), 1, prec), None),
        ("xi_2/5^0 x V2", build_xi_tensor([F(2, 5)], 0, 2, prec), None),
        ("theme rank 2", theme2.module, 1),
        ("theme rank 3", theme3.module, 1),
        ("theme rank 4", theme4.module, 1),
        ("mixed classes", mixed.module, None),
        ("sylvester pair", sylv, None),
        ("ode jordan", ode, None),
        ("rank 4 sum", direct_sum(build_xi_tensor([F(1, 2)], 0, 2, prec),
                                  xi_module(F(1, 3), 1, prec)), None),
    ]
    for name, module, expect_v in zoo:
        ok, _ = is_geometric(module)
        assert ok, name
        emb = embed_into_xi(module)
        assert emb.check_equivariance(), name
        if expect_v is not None:
            assert emb.dim_v == expect_v, name
    _report(8, f"embedding found and certified for {len(zoo)} zoo modules",
            t0, 120)


def test_criterion_09_failure_modes():
    t0 = time.time()
    prec = 8
    with pytest.raises(NotRegular):
        saturate(module_from_matrix([[TruncSeries.one(prec)]]))
    with pytest.raises(NotAUnit):
        FrescoPresentation([(F(1), TruncSeries([0, 1], prec)), (F(1),)], prec)
    host = module_e_lambda(F(1, 2), 4)
    lat = lattice_reduce([host.element([TruncSeries([0, 0, 0, 1], 4)])])
    fuzzy = TruncSeries([1, 0, 0, 0], 4).derivative().derivative()
    assert fuzzy.is_zero_known() and fuzzy.prec == 2
    with pytest.raises(PrecisionExhausted):
        lat.member(host.element([fuzzy]))
    _report(9, "NotRegular / NotAUnit / PrecisionExhausted raised as specified",
            t0, 1)


def test_criterion_10_cli_determinism():
    t0 = time.time()
    names = ["worked_theme", "expansions_and_systems", "mixed_classes"]
    for name in names:
        session = ROOT / "sessions" / f"{name}.abm"
        golden = ROOT / "tests" / "golden" / f"{name}.txt"
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "abmod.cli", str(session)],
                capture_output=True, text=True, cwd=ROOT)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], name
        assert outs[0] == golden.read_text(), name
    _report(10, "byte-identical reports for the shipped sessions", t0, 5)
