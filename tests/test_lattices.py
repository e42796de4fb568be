"""Lattice reduction, membership, hulls and quotients over the series DVR."""

from fractions import Fraction as F
from unittest import mock

from hypothesis import event, given, settings, strategies as st

import pytest

from abmod import (AbmodError, HostMismatch, NotAStable, NotNormal,
                   PrecisionExhausted, TruncSeries, lattice_reduce, lattices,
                   module_e_lambda, normal_hull, quotient_module,
                   semisimple_filtration, xi_module)
from abmod.frescos import FrescoPresentation, fresco_from_presentation
from abmod.lattices import (_reduce_vectors, full_lattice, is_normal,
                            kernel_of_series_map,
                            sub_module_structure, zero_lattice)
from abmod.modules import AbModule, ModuleElement, direct_sum

from strategies import geometric_fresco

P = 10


def ts(coeffs):
    return TruncSeries(coeffs, P)


class TestReduce:
    def test_absorption(self):
        m = module_e_lambda(F(1, 2), P)
        lat = lattice_reduce([m.basis(0).act_b(), m.basis(0)])
        assert lat.rank == 1 and lat.pivots == ((0, 0),)

    def test_two_generators(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 2), P))
        g1 = m.element([ts([1]), ts([0, 1])])      # e1 + b e2
        g2 = m.element([ts([0, 1]), ts([0])])      # b e1
        lat = lattice_reduce([g1, g2])
        # b e1 = b(e1 + b e2) - b^2 e2: the second pivot sits at valuation 2
        assert lat.pivots == ((0, 0), (1, 2))

    def test_empty(self):
        m = module_e_lambda(F(1, 2), P)
        lat = lattice_reduce([], host=m)
        assert lat.rank == 0 and lat.is_zero()

    def test_tracked_coordinates_certify_basis(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 2), P))
        gens = [m.element([ts([1]), ts([0, 1])]),
                m.element([ts([0, 1]), ts([0])])]
        lat = lattice_reduce(gens, track=True)
        for vec, trk in zip(lat.basis, lat.tracks):
            acc = m.zero()
            for c, g in zip(trk, gens):
                acc = acc + g.mul_series(c)
            assert tuple(acc.coords) == tuple(
                x for x in vec) or all(
                a.eq_shared(b) for a, b in zip(acc.coords, vec))

    def test_pivot_decision_beyond_precision_raises(self):
        m = module_e_lambda(F(1, 2), P)
        bad = m.element([TruncSeries([], 0)])
        with pytest.raises(PrecisionExhausted):
            lattice_reduce([bad])


def lattice_data(lat):
    """Basis coefficients and precisions, pivots, tracks and generator
    count of a lattice."""
    return ([[(e.coeffs, e.prec) for e in vec] for vec in lat.basis],
            lat.pivots, lat.tracks, lat.ngens)


class TestFullLattice:
    def test_equals_the_reduced_basis(self):
        for rank in range(5):
            for prec in range(1, 9):
                host = AbModule([[TruncSeries.zero(prec)] * rank
                                 for _ in range(rank)], prec=prec)
                assert lattice_data(full_lattice(host)) == lattice_data(
                    lattice_reduce(host.basis_elements(), host=host)), \
                    (rank, prec)

    def test_no_known_coefficients_raises_as_the_reduction_does(self):
        host = AbModule([[TruncSeries.zero(0)]])
        message = ("cannot decide whether lattice generator entry "
                   "vanishes: no known coefficients")
        for build in (full_lattice,
                      lambda h: lattice_reduce(h.basis_elements(), host=h)):
            with pytest.raises(PrecisionExhausted) as exc:
                build(host)
            assert str(exc.value) == message


class TestMember:
    def test_multiple_of_generator(self):
        m = module_e_lambda(F(1, 2), P)
        lat = lattice_reduce([m.basis(0)])
        assert lat.member(m.basis(0).act_b())

    def test_needs_negative_power(self):
        m = module_e_lambda(F(1, 2), P)
        lat = lattice_reduce([m.basis(0).act_b()])
        assert not lat.member(m.basis(0))

    def test_back_substitution(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 2), P))
        lat = lattice_reduce([m.element([ts([1]), ts([0, 1])]),
                              m.element([ts([0]), ts([0, 1])])])
        assert lat.pivots == ((0, 0), (1, 1))
        x = m.element([ts([1, 1]), ts([0, 0, 1])])
        assert lat.member(x)
        # and for the generators of TestReduce.test_two_generators it fails:
        lat2 = lattice_reduce([m.element([ts([1]), ts([0, 1])]),
                               m.element([ts([0, 1]), ts([0])])])
        assert not lat2.member(x)

    def test_undecidable_membership_raises(self):
        m = module_e_lambda(F(1, 2), 4)
        lat = lattice_reduce([m.element([TruncSeries([0, 0, 0, 1], 4)])])
        # zero through order 1 with precision 2: could be b^2 u or not
        fuzzy = TruncSeries([1, 0, 0, 0], 4).derivative().derivative()
        assert fuzzy.prec == 2 and fuzzy.is_zero_known()
        with pytest.raises(PrecisionExhausted):
            lat.member(m.element([fuzzy]))


class TestNormalHull:
    def test_divide_pivot_power(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(0).act_b()])
        hull = normal_hull(lat)
        assert hull.rank == 1 and hull.pivots == ((0, 0),)
        assert hull.member(xi.basis(0))

    def test_already_normal(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(0)])
        hull = normal_hull(lat)
        assert hull.eq(lat)

    def test_mixed_generators_fill_module(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(1), xi.basis(0).act_b()])
        hull = normal_hull(lat)
        assert hull.rank == 2 and is_normal(hull)
        assert hull.member(xi.basis(0))

    def test_hull_is_normal_in_host(self):
        # L' with L' cap b*host = b*L': pivot valuations are all zero
        xi = xi_module(F(1, 3), 1, P)
        lat = lattice_reduce([xi.basis(1).act_b(),
                              xi.basis(0).act_b().act_b()])
        hull = normal_hull(lat)
        assert is_normal(hull)
        # spot check: an element of hull with all coordinates divisible by b
        # is b times a hull element
        g = hull.basis_elements()[0].act_b()
        coords = hull.member_coords(g)
        assert coords is not None
        assert all(c.valuation_lower_bound() >= 1 for c in coords)


def reference_normal_hull(lat):
    """The normal hull by Smith reduction over the DVR, kept as the
    reference for normal_hull: row operations are tracked as a running
    basis change F of the host, and the hull is spanned by the new basis
    directions carrying the elementary divisors."""
    if lat.is_zero():
        return lat
    host = lat.host
    k = host.rank
    prec = host.prec
    r = len(lat.basis)
    # G[i][j] = coordinate i of generator j
    G = [[lat.basis[j][i] for j in range(r)] for i in range(k)]
    # F columns = current host basis expressed in original coordinates
    F = [[TruncSeries.constant(int(i == j), prec) for j in range(k)]
         for i in range(k)]
    done_rows, done_cols = set(), set()
    divisors = []  # row index in F per elementary divisor

    while True:
        best = None
        for i in range(k):
            if i in done_rows:
                continue
            for j in range(r):
                if j in done_cols:
                    continue
                v = G[i][j].known_valuation()
                if v is None:
                    G[i][j].decided_zero("hull entry")
                    continue
                key = (v, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        v, pi, pj = best
        uinv = G[pi][pj].divide_bpow(v).invert()
        for i in range(k):
            G[i][pj] = uinv.mul_sharp(G[i][pj], cap=prec)
        G[pi][pj] = TruncSeries.b_power(v, prec)
        # clear the pivot row (column operations; span preserved)
        for j in range(r):
            if j == pj:
                continue
            low, high = G[pi][j].split_at(v)
            if not low.is_zero_known():
                raise PrecisionExhausted("hull pivot was not minimal")
            if not high.is_zero_known():
                for i in range(k):
                    G[i][j] = G[i][j].sub_mul(high, G[i][pj], cap=prec)
            G[pi][j] = TruncSeries.zero(prec)
        # clear the pivot column (row operations; update F by the inverse op)
        for i in range(k):
            if i == pi:
                continue
            low, high = G[i][pj].split_at(v)
            if not low.is_zero_known():
                raise PrecisionExhausted("hull pivot was not minimal")
            if not high.is_zero_known():
                # row_i -= high * row_pi on G; F gets col_pi += high * col_i
                for j in range(r):
                    G[i][j] = G[i][j].sub_mul(high, G[pi][j], cap=prec)
                for t in range(k):
                    F[t][pi] = F[t][pi].sub_mul(-high, F[t][i], cap=prec)
            G[i][pj] = TruncSeries.zero(prec)
        done_rows.add(pi)
        done_cols.add(pj)
        divisors.append(pi)

    gens = [ModuleElement(host, tuple(F[t][pi] for t in range(k)))
            for pi in divisors]
    return lattice_reduce(gens, host=host)


@st.composite
def partial_lattice(draw):
    """A lattice in a geometric fresco module at precision <= 12, spanned
    by 1..max(1, rank - 1) generators with entries b^v (c0 + c1 b + c2 b^2),
    v in 0..3: mostly of partial rank and not normal."""
    module = draw(geometric_fresco(max_prec=12))
    coeff = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2, 3), F(3)])
    gens = []
    for _ in range(draw(st.integers(1, max(1, module.rank - 1)))):
        entries = []
        for _ in range(module.rank):
            v = draw(st.integers(0, 3))
            cs = [draw(coeff) for _ in range(3)]
            entries.append(TruncSeries([0] * v + cs, module.prec))
        gens.append(module.element(entries))
    return lattice_reduce(gens, host=module)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(partial_lattice())
def test_normal_hull_matches_the_smith_reference(lat):
    if lat.rank < lat.host.rank:
        event("partial rank")
    if not is_normal(lat):
        event("non-normal input")
    hull = normal_hull(lat)
    assert hull.eq(reference_normal_hull(lat))
    assert is_normal(hull)
    assert hull.rank == lat.rank
    assert hull.contains(lat)


class TestQuotient:
    def test_xi_by_first_vector(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(0)])
        quot = quotient_module(xi, lat)
        assert quot.module.rank == 1
        assert quot.module.same_action(module_e_lambda(F(1, 2), P))

    def test_quotient_by_zero_lattice(self):
        xi = xi_module(F(1, 2), 1, P)
        quot = quotient_module(xi, zero_lattice(xi))
        assert quot.module.rank == 2
        assert quot.module.same_action(xi)

    def test_non_normal_rejected(self):
        m = module_e_lambda(F(1, 2), P)
        lat = lattice_reduce([m.basis(0).act_b()])
        with pytest.raises(NotNormal):
            quotient_module(m, lat)

    def test_non_stable_rejected(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 3), P))
        lat = lattice_reduce([m.element([ts([1]), ts([1])])])
        with pytest.raises(NotAStable):
            quotient_module(m, lat)

    def test_projection_section(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(0)])
        quot = quotient_module(xi, lat)
        y = quot.project(xi.basis(1))
        assert quot.project(quot.lift(y)) == y

    def test_projection_and_section_reject_foreign_elements(self):
        fr = fresco_from_presentation(
            FrescoPresentation([(F(3, 2), 1), (F(1, 2),)], P), P)
        quot = quotient_module(
            fr.module, semisimple_filtration(fr.module).steps[0])
        line = module_e_lambda(F(1, 3), P)
        with pytest.raises(HostMismatch):
            quot.project(direct_sum(line, line).basis(1))
        with pytest.raises(HostMismatch):
            quot.lift(fr.module.basis(1))
        twin = quotient_module(fr.module, quot.lattice)
        with pytest.raises(HostMismatch):
            quot.lift(twin.project(fr.module.basis(1)))


class TestSubModuleStructure:
    def test_eigen_line(self):
        xi = xi_module(F(1, 2), 1, P)
        lat = lattice_reduce([xi.basis(0)])
        sub = sub_module_structure(lat)
        assert sub.module.rank == 1
        assert sub.module.same_action(module_e_lambda(F(1, 2), P))

    def test_unstable_lattice_rejected(self):
        m = direct_sum(module_e_lambda(F(1, 2), P), module_e_lambda(F(1, 3), P))
        lat = lattice_reduce([m.element([ts([1]), ts([1])])])
        with pytest.raises(NotAStable):
            sub_module_structure(lat)


class TestKernel:
    def test_simple_relation(self):
        # kernel of (b, -1): spanned by (1, b)
        rows = [[TruncSeries.b_power(1, P), TruncSeries([-1], P)]]
        ker = kernel_of_series_map(rows, 2, P)
        assert len(ker) == 1
        v = ker[0]
        combo = rows[0][0].mul_sharp(v[0]) + rows[0][1].mul_sharp(v[1])
        assert combo.is_zero_known()

    def test_full_kernel_when_map_is_zero(self):
        rows = [[TruncSeries.zero(P), TruncSeries.zero(P)]]
        ker = kernel_of_series_map(rows, 2, P)
        assert len(ker) == 2


# -- the reduction and the elimination against their parallel-path forms --

def reference_reduce_vectors(vectors, dim, prec, tracks=None):
    """The Hermite reduction with tracks as a parallel list of companion
    vectors, kept as the reference for ``_reduce_vectors``, which carries
    them as trailing coordinates.  Returns (basis, pivots, out_tracks,
    zero_tracks)."""
    work = [list(v) for v in vectors]
    wtr = [list(t) for t in tracks] if tracks is not None else None
    basis, pivots, btr, zero_tracks = [], [], [], []

    def scale_vec(vec, s):
        for i in range(len(vec)):
            vec[i] = s.mul_sharp(vec[i], cap=prec)

    def sub_scaled(dst, q, src):
        for i in range(len(dst)):
            dst[i] = dst[i].sub_mul(q, src[i], cap=prec)

    def pairs(vectors, tracks):
        if tracks is None:
            return [(v, None) for v in vectors]
        return list(zip(vectors, tracks))

    while True:
        alive = []
        for idx, vec in enumerate(work):
            nonzero = False
            for e in vec:
                if not e.decided_zero("lattice generator entry"):
                    nonzero = True
                    break
            if nonzero:
                alive.append(idx)
            elif wtr is not None:
                zero_tracks.append(tuple(wtr[idx]))
        work = [work[i] for i in alive]
        if wtr is not None:
            wtr = [wtr[i] for i in alive]
        if not work:
            break
        best = None
        for idx, vec in enumerate(work):
            for coord in range(dim):
                v = vec[coord].known_valuation()
                if v is None:
                    continue
                key = (v, coord, idx)
                if best is None or key < best:
                    best = key
        v, coord, idx = best
        g = work.pop(idx)
        gt = wtr.pop(idx) if wtr is not None else None
        uinv = g[coord].divide_bpow(v).invert()
        scale_vec(g, uinv)
        if gt is not None:
            scale_vec(gt, uinv)
        g[coord] = TruncSeries.b_power(v, g[coord].prec)
        for vec, tr in pairs(work, wtr):
            low, high = vec[coord].split_at(v)
            if not low.is_zero_known():
                raise PrecisionExhausted(
                    "pivot minimality violated; cannot reduce exactly")
            if not high.is_zero_known():
                sub_scaled(vec, high, g)
                if tr is not None:
                    sub_scaled(tr, high, gt)
            vec[coord] = TruncSeries.zero(vec[coord].prec)
        for bvec, btrk in zip(basis, btr if wtr is not None else basis):
            low, high = bvec[coord].split_at(v)
            if not high.is_zero_known():
                sub_scaled(bvec, high, g)
                if wtr is not None:
                    sub_scaled(btrk, high, gt)
                bvec[coord] = low
        basis.append(g)
        if wtr is not None:
            btr.append(gt)
        pivots.append((coord, v))
    out_tracks = [tuple(t) for t in btr] if tracks is not None else None
    return ([tuple(b) for b in basis], pivots, out_tracks, zero_tracks)


def reference_quot_project_raw(quot, x):
    """The projection loop that eliminated pivot coordinates without the
    membership guards, kept as the reference for ``quot_project_raw``."""
    vec = list(x.coords)
    for g, (p, v) in zip(quot.lattice.basis, quot.lattice.pivots):
        c = vec[p]
        if not c.is_zero_known():
            for i in range(len(vec)):
                vec[i] = vec[i].sub_mul(c, g[i], cap=quot._host.prec)
        vec[p] = TruncSeries.zero(vec[p].prec)
    return [vec[i] for i in quot.complement]


def exact(obj):
    """Series as (coefficients, precision), recursively: ``==`` on series
    only compares the shared precision."""
    if isinstance(obj, TruncSeries):
        return obj.coeffs, obj.prec
    if isinstance(obj, (list, tuple)):
        return tuple(exact(o) for o in obj)
    return obj


def outcome(fn, *args):
    """exact(fn(*args)), or the type and message of the error it raises."""
    try:
        return exact(fn(*args))
    except AbmodError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def series_entry(draw, cap):
    """A series of precision 1..cap (rarely 0) and valuation 0..3, or a
    known zero whose precision is below the cap."""
    prec = draw(st.integers(0, cap) if draw(st.integers(0, 19)) == 0
                else st.integers(1, cap))
    if draw(st.booleans()):
        return TruncSeries.zero(draw(st.integers(1, max(1, cap - 1))))
    coeff = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(2, 3), F(3)])
    v = draw(st.integers(0, 3))
    return TruncSeries([0] * v + [draw(coeff) for _ in range(3)], prec)


@st.composite
def tracked_vectors(draw):
    """dim, prec, up to dim + 3 vectors of series entries, and one track
    per vector: rows of the identity or random series."""
    dim = draw(st.integers(1, 3))
    prec = draw(st.integers(2, 8))
    n = draw(st.integers(1, dim + 3))
    vectors = [tuple(draw(series_entry(prec)) for _ in range(dim))
               for _ in range(n)]
    if draw(st.booleans()):
        tracks = [tuple(TruncSeries.constant(int(i == j), prec)
                        for j in range(n)) for i in range(n)]
    else:
        width = draw(st.integers(1, 3))
        tracks = [tuple(draw(series_entry(prec)) for _ in range(width))
                  for _ in range(n)]
    return dim, prec, vectors, tracks


def tracked_reduce(vectors, dim, prec, tracks):
    """``_reduce_vectors`` on the vectors extended by their tracks, in the
    reference's (basis, pivots, out_tracks, zero_tracks) shape."""
    basis, pivots, dropped = _reduce_vectors(
        [tuple(v) + tuple(t) for v, t in zip(vectors, tracks)], dim, prec)
    return ([b[:dim] for b in basis], pivots, [b[dim:] for b in basis],
            [tuple(d[dim:]) for d in dropped])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(tracked_vectors())
def test_reduce_vectors_matches_the_parallel_track_reference(case):
    dim, prec, vectors, tracks = case
    if len(vectors) > dim:
        event("more vectors than dim")
    got = outcome(tracked_reduce, vectors, dim, prec, tracks)
    assert got == outcome(reference_reduce_vectors, vectors, dim, prec,
                          tracks)
    if isinstance(got[0], str):
        event("raises")
        return
    if got[3]:
        event("relations")
    untracked = outcome(_reduce_vectors, vectors, dim, prec)
    assert untracked[:2] == got[:2]
    ref_untracked = outcome(reference_reduce_vectors, vectors, dim, prec)
    assert untracked[:2] == ref_untracked[:2]
    # the kernel of the map whose columns are the vectors
    rows = [[vec[i] for vec in vectors] for i in range(dim)]
    n = len(vectors)
    identity = [tuple(TruncSeries.constant(int(i == j), prec)
                      for j in range(n)) for i in range(n)]
    assert outcome(kernel_of_series_map, rows, n, prec) == outcome(
        lambda: reference_reduce_vectors(vectors, dim, prec, identity)[3])


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(geometric_fresco(max_prec=10, min_prec=2))
def test_quotient_projection_matches_the_reference_loop(module):
    """The filtration, its level modules and the projections of its
    quotients are identical when quotients project with the old loop, and
    so is the error when one is raised."""
    def summary():
        filt = semisimple_filtration(AbModule(module.a_matrix))
        host = filt.host
        out = [[(s.basis, s.pivots) for s in filt.steps]]
        out.append([level.a_matrix for level in filt.levels])
        elems = [host.basis(i) for i in range(host.rank)]
        elems += [e.act_a() for e in elems] + [e.act_b() for e in elems]
        for step in filt.steps:
            elems += step.basis_elements()
        for step in filt.steps:
            quot = quotient_module(host, step)
            out.append([lattices.quot_project_raw(quot, x) for x in elems])
        return out

    got = outcome(summary)
    with mock.patch.object(lattices, "quot_project_raw",
                           reference_quot_project_raw):
        ref = outcome(summary)
    if isinstance(got[0], str):
        event(f"raises {got[0]}")
    assert got == ref
