"""Property tests of the incremental parameter solver on random systems.

A system is a number of parameters and a list of equations, each a sparse
linear form with small rational coefficients.  The reference solution is
built from the public interface only: the free parameters are those that
reduce to themselves, and every parameter's value is its reduced form
evaluated at an assignment of the free ones.  The solver eliminates on
integer numerators, so it is also checked against a plain Fraction
Gauss-Jordan elimination on coefficients up to 2**64, and its stored
substitutions against their canonical integer form.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

from abmod.linsolve import ParamSolver, form_add, form_scale

PROPS = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)

MAX_PARAMS = 8
coeff = st.sampled_from([F(n, d) for n in range(-3, 4) for d in (1, 2, 7)])
value = st.sampled_from([F(n, d) for n in range(-5, 6) for d in (1, 3)])
big = st.builds(F, st.integers(-2**64, 2**64), st.integers(1, 2**64))
scale = big.filter(bool)


def form(n, coeffs=coeff):
    return st.dictionaries(st.integers(0, n - 1), coeffs, max_size=4)


def solved(n, equations):
    """A solver of *n* parameters holding *equations*, fed in order."""
    solver = ParamSolver()
    for _ in range(n):
        solver.new_param()
    for eq in equations:
        solver.add_equation(eq)
    return solver


@st.composite
def system(draw):
    """(solver, forms, values for every parameter, parameter count,
    equations), the solver holding the equations."""
    n = draw(st.integers(1, MAX_PARAMS))
    equations = draw(st.lists(form(n), max_size=n + 2))
    solver = solved(n, equations)
    forms = draw(st.lists(form(n), min_size=1, max_size=6))
    assign = {p: draw(value) for p in range(n)}
    return solver, forms, assign, n, equations


def dot(f, values):
    return sum((c * values[p] for p, c in f.items()), F(0))


def full_solution(solver, n, assign):
    """A value for every parameter that satisfies every equation: the free
    parameters take their values from *assign*."""
    free = {p: assign[p] for p in range(n)
            if solver.reduce({p: F(1)}) == {p: F(1)}}
    return {p: dot(solver.reduce({p: F(1)}), free) for p in range(n)}, free


@PROPS
@given(system())
def test_reduce_is_idempotent_on_a_finished_solver(case):
    solver, forms, _, _, _ = case
    for f in forms:
        once = solver.reduce(f)
        assert solver.reduce(once) == once
        assert all(c for c in once.values())


@PROPS
@given(system())
def test_evaluate_of_reduced_form_is_the_value_on_the_solution(case):
    solver, forms, assign, n, equations = case
    values, free = full_solution(solver, n, assign)
    assert all(dot(eq, values) == 0 for eq in equations)
    for f in forms:
        reduced = solver.reduce(f)
        assert set(reduced) <= set(free)
        # the value of f on a solution of the system, computed from f itself
        assert solver.evaluate(reduced, free) == dot(f, values)
        # the old evaluate(f, a), which reduced f itself; missing values are 0
        part = {p: v for p, v in assign.items() if p % 2}
        assert solver.evaluate(reduced, part) == sum(
            (c * part.get(p, F(0)) for p, c in reduced.items()), F(0))


@PROPS
@given(system())
def test_live_params_unchanged_on_reduced_forms(case):
    solver, forms, _, _, _ = case
    reduced = [solver.reduce(f) for f in forms]
    assert solver.live_params(reduced) == solver.live_params(forms)
    assert solver.live_params(forms) == sorted(
        {p for f in reduced for p in f})


@PROPS
@given(system(), st.randoms(use_true_random=False))
def test_equation_order_does_not_change_the_solution(case, rnd):
    # the stored substitutions are the reduced row-echelon form of the
    # span of the equations (pivot: the largest parameter), which is unique
    solver, _, _, n, equations = case
    shuffled = list(equations)
    rnd.shuffle(shuffled)
    other = solved(n, shuffled)
    units = [{p: F(1)} for p in range(n)]
    assert other.live_params(units) == solver.live_params(units)
    for u in units:
        assert other.reduce(u) == solver.reduce(u)


@PROPS
@given(st.integers(1, MAX_PARAMS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(form(n), max_size=n + 2))))
def test_zero_set_and_holder_index_follow_the_substitutions(case):
    n, equations = case
    solver = solved(n, [])
    zero = set()
    for eq in equations:
        solver.add_equation(eq)
        subs = solver._subs
        # the zero set is exactly the empty substitutions, and only grows
        assert solver.zero == {p for p, g in subs.items() if not g}
        assert solver.zero >= zero
        zero = set(solver.zero)
        # every parameter of a stored substitution indexes it, and only it
        held = {}
        for p, g in subs.items():
            for q in g:
                assert q not in subs
                held.setdefault(q, set()).add(p)
        assert {q: h for q, h in solver._holders.items() if h} == held


@PROPS
@given(form(MAX_PARAMS), form(MAX_PARAMS), coeff)
def test_scaled_form_add_is_add_of_the_scaled_form(acc, f, c):
    assert form_add(dict(acc), f, c) == form_add(dict(acc), form_scale(f, c))
    assert form_add(dict(acc), f, F(0)) == acc
    assert form_add(dict(acc), f) == form_add(dict(acc), f, F(1))
    # c * f cancels against -c * f down to the empty form
    f = {p: v for p, v in f.items() if v}
    assert form_add(form_scale(f, -c), f, c) == {}


def gauss_jordan(n, equations):
    """{pivot: row} of the reduced row-echelon form of the equations, by
    plain Fraction elimination on the columns from the largest parameter
    down: row[pivot] == 1 and row is zero on every other pivot."""
    rows = [{p: F(c) for p, c in eq.items() if c} for eq in equations]
    pivots = {}
    for col in range(n - 1, -1, -1):
        row = next((r for r in rows if r.get(col)), None)
        if row is None:
            continue
        rows.remove(row)
        inv = 1 / row[col]
        row = {p: c * inv for p, c in row.items()}
        for other in rows + list(pivots.values()):
            c = other.get(col)
            if c:
                for p, v in row.items():
                    other[p] = other.get(p, F(0)) - c * v
                    if not other[p]:
                        del other[p]
        pivots[col] = row
    return pivots


big_system = st.integers(1, MAX_PARAMS).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(form(n, big), max_size=n + 2)))


@PROPS
@given(big_system)
def test_unit_forms_match_fraction_gauss_jordan(case):
    n, equations = case
    solver = solved(n, equations)
    rref = gauss_jordan(n, equations)
    for p in range(n):
        row = rref.get(p)
        expect = {p: F(1)} if row is None else {
            q: -c for q, c in row.items() if q != p}
        got = solver.reduce({p: 1})
        assert got == expect
        assert all(type(c) is F for c in got.values())


@PROPS
@given(big_system)
def test_stored_substitutions_are_in_lowest_terms(case):
    n, equations = case
    solver = solved(n, [])
    for eq in equations:
        solver.add_equation(eq)
        assert set(solver._dens) == set(solver._subs)
        for p, g in solver._subs.items():
            den = solver._dens[p]
            assert type(den) is int and den > 0
            assert all(type(v) is int and v for v in g.values())
            assert gcd(den, *g.values()) == 1


@PROPS
@given(big_system, st.data())
def test_scaled_equations_give_the_same_solver(case, data):
    n, equations = case
    factors = data.draw(st.lists(scale, min_size=len(equations),
                                 max_size=len(equations)))
    solver = solved(n, equations)
    other = solved(n, [form_scale(eq, c)
                       for eq, c in zip(equations, factors)])
    # the stored form is canonical, so it is equal, not just equivalent
    assert other._subs == solver._subs and other._dens == solver._dens
    for p in range(n):
        assert other.reduce({p: 1}) == solver.reduce({p: 1})


int_form = st.dictionaries(st.integers(0, MAX_PARAMS - 1),
                           st.integers(-2**64, 2**64).filter(bool),
                           max_size=4)


@PROPS
@given(int_form, int_form, st.integers(-2**64, 2**64))
def test_row_operations_keep_integer_forms_integer(acc, f, c):
    for out in (form_add(dict(acc), f, c), form_add(dict(acc), f),
                form_add({}, f, c), form_scale(f, c)):
        assert all(type(v) is int and v for v in out.values())
