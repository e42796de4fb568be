"""Semi-simplicity, the canonical filtration, primitive decomposition and
higher Bernstein polynomials.

The filtration is computed from eigen-elements: solutions of
(a - lambda b) x = 0, the images of e under a-equivariant maps
E_lambda -> E.  They come from the one elimination loop for equivariant
maps, which the embedding search into expansion modules shares; it finds
the map coefficient-by-coefficient as an exact linear system.  The
candidates lambda + m share it: if every solution at lambda + m vanishes
below b^m, the system is the lambda one at precision p - m shifted by
b^m, so one elimination per base exponent, recorded after each order
from p - p // 2 - 1 on, answers every shift.  A zero-prefix check finds
m; it feeds at most min(p - v, k + 2) orders of the system at
lambda + m - v, never an equation past the truncation.  The algorithmic
choices the underlying theory leaves open (the eigen-span hull realizing
the first filtration step, the candidate bound for lambda: negated
Bernstein roots shifted by 0..prec // 2) are validated post hoc by the
filtration, on the level modules it keeps, and a failed validation is a
diagnostic.  It does not catch every wrong answer: on some geometric
frescos the filtration comes out too short with no diagnostic (ROADMAP
open item 1).  The candidates are solved only until the first step is
decided: a rank-1 module is its own semi-simple part with no solve, and
once the eigen-span reaches full rank the remaining candidates are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import NotAStable, NotGeometric, ValidationFailed
from .lattices import (Lattice, Quotient, full_lattice, is_normal,
                       lattice_reduce, normal_hull, quotient_module,
                       sub_module_structure, kernel_of_series_map,
                       zero_lattice)
from .linsolve import ParamSolver
from .modules import (AbModule, derived, module_e_lambda, smat_coeff,
                      smat_from_const, smat_mul)
from .qlinalg import (identity, inverse as qinverse, mat_mul, nullspace,
                      solve as qsolve)
from .ratpoly import RationalPolynomial
from .saturation import bernstein_polynomial, require_geometric, saturate
from .series import TruncSeries, rat, rat_str


def class_mod_z(x) -> Fraction:
    """Representative of x mod Z in the half-open interval (0, 1]."""
    x = rat(x)
    f = x - (x.numerator // x.denominator)
    return f if f != 0 else Fraction(1)


# -- equivariant maps and eigen elements ------------------------------------

@derived
def _target_table(target: AbModule, ks: int):
    """The target's half of the equivariance table for sources of rank ks.

    Returns (rows, diag).  Equation (t, j) of order n is row tj = t*ks + j;
    the coefficient of the unknown Phi_{n-m}[r][s] from -B_m Phi_{n-m} is
    ``rows[tj][(m + 1)*size - 1 - (r*ks + s)]``, so the unknown numbered q
    sits at ``rows[tj][(n + 1)*size - 1 - q]`` in every order-n equation.
    The m = 1 diagonal (r, s) = (t, j) is 0 in rows and -B_1[t][t] in
    diag[tj].  Shared by every solve into *target*: never mutated.
    """
    kt, p = target.rank, target.prec
    size = kt * ks
    rows = [[0] * (p * size) for _ in range(size)]
    diag = [None] * size
    for m in range(p):
        b = smat_coeff(target.a_matrix, m)
        for t in range(kt):
            for j in range(ks):
                row = rows[t * ks + j]
                for u in range(kt):
                    if m == 1 and u == t:
                        diag[t * ks + j] = -b[t][t]
                    elif b[t][u]:
                        row[(m + 1) * size - 1 - (u * ks + j)] = -b[t][u]
    return tuple(map(tuple, rows)), tuple(diag)


def _feed_orders(solver: ParamSolver, source: AbModule, target: AbModule):
    """Feed the equations of Phi . A = B . Phi + b^2 Phi' to *solver*
    order by order, yielding each order n = 0..p-1 once it is fed.

    Phi is the target.rank x source.rank series matrix of an a-equivariant
    map source -> target, and A, B are the two a-matrices.  The unknown
    Phi_n[t][j] (coefficient of b^n) is parameter n*size + t*ks + j, of tag
    n, where size = kt*ks and p = min(source.prec, target.prec); all of
    them are created up front.  Equations of order n hold unknowns of order
    <= n only, so after order n the solver holds the system at precision
    n + 1.

    The coefficient table is the target's half (``_target_table``, built
    once per target and source rank) plus the source's A_m entries.  A
    source that only has a diagonal A_1, such as E_lambda, adds to diag
    alone, so every eigen solve into one module shares its table.  Each
    order-n equation is written over the unknowns of order <= n that are
    not eliminated to zero (``ParamSolver.zero``), a list refiltered once
    per order; the unknowns eliminated within the order stay in it, which
    is exact, since ``reduce`` drops them.
    """
    ks, kt = source.rank, target.rank
    size = kt * ks
    p = min(source.prec, target.prec)
    rows, diag = _target_table(target, ks)
    diag = list(diag)
    own = None
    for m in range(p):
        a = smat_coeff(source.a_matrix, m)
        for i in range(ks):
            for j in range(ks):
                c = a[i][j]
                if not c:
                    continue
                for t in range(kt):
                    if m == 1 and i == j:
                        diag[t * ks + j] += c
                        continue
                    if own is None:
                        rows = own = [list(r) for r in rows]
                    own[t * ks + j][(m + 1) * size - 1 - (t * ks + i)] += c
    for n in range(p):
        for _ in range(size):
            solver.new_param(tag=n)
    zero = solver.zero
    unknowns = []
    for n in range(p):
        unknowns = [q for q in unknowns if q not in zero]
        unknowns.extend(range(n * size, (n + 1) * size))
        off = (n + 1) * size - 1
        for tj in range(size):
            row = rows[tj]
            eq = {}
            for q in unknowns:
                c = row[off - q]
                if c:
                    eq[q] = c
            if n:
                c = diag[tj] - (n - 1)
                if c:
                    eq[(n - 1) * size + tj] = c
            solver.add_equation(eq)
        yield n


def _unit_solutions(solver: ParamSolver, size: int, orders: int,
                    cutoff: int):
    """(live, phi): the reduced forms phi of the unknowns of order < orders,
    and the free parameters of tag <= cutoff that they depend on.

    A free parameter's own form holds it, and a reduced form holds no
    parameter numbered above its own, so the forms of tag <= cutoff hold
    exactly the live parameters.
    """
    one = Fraction(1)
    phi = [solver.reduce({idx: one}) for idx in range(orders * size)]
    return solver.live_params(phi[:(cutoff + 1) * size]), phi


def _solve_equivariance(source: AbModule, target: AbModule):
    """Parametric solution of Phi . A = B . Phi + b^2 Phi' (see
    ``_feed_orders``) at precision p = min(source.prec, target.prec).

    Returns (live, build): the free parameters of tag (order) <= p // 2
    that the solution depends on, and ``build(assign)``, the matrix Phi
    when those parameters take the values in *assign* (0 where missing).
    A free parameter of a later order is fixed only by equations beyond the
    truncation.  The solver pivots on the largest parameter, so every
    unknown numbered below a free q is independent of it: ``build({q: 1})``
    has coefficient 1 at b^n in entry (t, j) and no term below b^n.
    """
    ks, kt = source.rank, target.rank
    size = kt * ks
    p = min(source.prec, target.prec)
    solver = ParamSolver()
    for _ in _feed_orders(solver, source, target):
        pass
    live, phi = _unit_solutions(solver, size, p, p // 2)

    def build(assign):
        return tuple(
            tuple(TruncSeries([solver.evaluate(phi[n * size + t * ks + j],
                                               assign)
                               for n in range(p)], p) for j in range(ks))
            for t in range(kt))

    return live, build


@derived
def _eigen_chain(module: AbModule, beta):
    """Unit solutions of the E_beta -> module system at each precision
    p - m, m = 0..p // 2, from one elimination at precision p.

    Entry m is the state after order p - m - 1: per live parameter of tag
    <= p // 2 - m, the k coefficient columns of its unit solution, of
    which the first p - m coefficients are this state's.  A later order
    seldom changes an earlier coefficient, so the states share what they
    can: a column is a list that the next state extends in place when
    its new order leaves the earlier coefficients unchanged, and a new
    column keeps the objects of the coefficients that did not change.
    ``eigen_elements`` reads entry m for lambda = beta + m.
    """
    p, k = module.prec, module.rank
    one, zero = Fraction(1), Fraction(0)
    states = [None] * (p // 2 + 1)
    last = {}
    solver = ParamSolver()
    for n in _feed_orders(solver, module_e_lambda(beta, p), module):
        m = p - 1 - n
        if m > p // 2:
            continue
        live, phi = _unit_solutions(solver, k, n + 1, p // 2 - m)
        cols = {}
        for q in live:
            # nothing below b^tag(q) (see _solve_equivariance)
            start = solver.tag(q)
            prev = last.get(q, (None,) * k)
            cols[q] = tuple(
                _extended(prev[t], [zero] * start + [
                    solver.evaluate(phi[i * k + t], {q: one})
                    for i in range(start, n + 1)])
                for t in range(k))
        states[m] = tuple(cols.values())
        last = cols
    return states


def _extended(run, col):
    """*run* with the last entry of *col* appended when *col* extends it
    by that entry, else *col*, whose entries equal to run's at the same
    index are replaced by run's objects."""
    if run is None:
        return col
    col[:len(run)] = [o if o == v else v for o, v in zip(run, col)]
    if col[:-1] == run:
        run.append(col[-1])
        return run
    return col


@derived
def _vanishes_at_b0(module: AbModule, mu, length):
    """Whether every solution of the E_mu -> module system at precision
    *length* has a zero b^0 term: the orders fed, at most *length*, have
    eliminated every order-0 unknown to zero."""
    solver = ParamSolver()
    for _ in _feed_orders(solver, module_e_lambda(mu, length), module):
        if solver.zero.issuperset(range(module.rank)):
            return True
    return False


def eigen_elements(module: AbModule, lam) -> Lattice:
    """The lattice spanned by the solutions of (a - lambda b) x = 0, solved
    order by order in b.

    A solution is the image of e under an a-equivariant map E_lambda -> E,
    where a e = lambda b e.  Solutions of the truncated system whose
    valuation exceeds prec // 2 are not solved for (only the parameters of
    order <= prec // 2 are kept, and the solution of a parameter of order
    n has valuation n; see ``_solve_equivariance``): their defining constraints
    lie beyond the truncation order, so they are indistinguishable from
    zero and carry no structure.  Only the span is returned: the reduced
    basis divides vectors by units, and a unit multiple of a solution is
    in general not one (on ``fresco [(4/3, 1 - b), (1/3, 1)]`` with
    lambda = 4/3 the solution (-1/3 b + 1/3 b^2) e0 + (1 - b) e1 becomes
    the basis vector (-1/3 b) e0 + e1).

    The solutions are not solved for per lambda.  If every solution at
    precision p vanishes below order m, the system is the E_(lambda - m)
    system at precision p - m shifted by b^m: the two tables differ only
    in the diagonal lambda - B_1[t][t] - (n - 1), the renumbering
    q -> q + m*k keeps the parameter order and with it the solver's
    unique reduced echelon form, and the live tags <= p // 2 become
    <= p // 2 - m.  So the unit solutions are entry m of
    ``_eigen_chain(module, lambda - m)``, padded with m zero
    coefficients, and every lambda of one chain shares its elimination.

    m comes from a zero-prefix check.  Once the solutions vanish below v,
    x / b^v solves the E_(lambda - v) system at precision p - v, so they
    vanish below v + 1 iff that system eliminates every order-0 unknown
    to zero; m is the first v where this fails.  The check feeds at most
    the first min(p - v, k + 2) orders of that system, and stops once the
    order-0 unknowns are zero: fewer equations can only leave more
    unknowns free, so a check that passes is exact, and one that fails
    early only gives a smaller m, for which the shift still holds.  The
    bound k + 2 affects only speed; feeding orders beyond p - v would use
    equations past the truncation.  Past m = p // 2 no parameter is live.
    """
    p, k = module.prec, module.rank
    if k == 0 or p < 2:
        return zero_lattice(module)
    lam = rat(lam)
    for m in range(p // 2 + 1):
        if not _vanishes_at_b0(module, lam - m, min(p - m, k + 2)):
            break
    else:
        return zero_lattice(module)
    zeros = [Fraction(0)] * m
    return lattice_reduce(
        [module.element([TruncSeries._exact(zeros + col[:p - m], p)
                         for col in cols])
         for cols in _eigen_chain(module, lam - m)[m]], host=module)


# -- semi-simple part and filtration -------------------------------------

@derived
def semisimple_part(module: AbModule):
    """Normal hull of the span of eigen-elements over all candidate lambdas.

    Returns (lattice, diagnostics).  Candidates run over negated Bernstein
    roots shifted by 0..prec // 2.  The solves stop once the answer is
    decided:

    - a module of rank <= 1 is its own part, with no solve: at rank 1 it
      is isomorphic to some E_lambda (``require_geometric`` reads the
      residue, so the precision is at least 2 there);
    - otherwise the candidates are visited by least shift, every unshifted
      root first, and once the eigen-span has full rank the normal hull is
      the whole module, whatever the remaining candidates add.  The span is
      reduced only when the ranks of the eigen-lattices seen allow it to
      be full.

    A span that never reaches full rank gives the hull of all candidates'
    eigen-elements.  The hull is validated by ``semisimple_filtration``.
    """
    diagnostics = []
    roots = [v for v, _ in require_geometric(module)["roots"]]
    if module.rank <= 1:
        return full_lattice(module), diagnostics
    lams0 = sorted({-r for r in roots}, reverse=True)
    elems, ranks = [], {}
    for lam in dict.fromkeys(lam0 + m for m in range(module.prec // 2 + 1)
                             for lam0 in lams0):
        lat = eigen_elements(module, lam)
        elems.extend(lat.basis_elements())
        # b^m maps the eigen-elements of lam into those of lam + m, so the
        # span reaches full rank only once the largest eigen-lattice ranks
        # seen per class mod Z add up to it; the reduction decides (a gate
        # that opens late costs solves, never the answer)
        cls = class_mod_z(lam)
        ranks[cls] = max(ranks.get(cls, 0), lat.rank)
        if lat.rank and sum(ranks.values()) == module.rank \
                and lattice_reduce(elems, host=module).rank == module.rank:
            return full_lattice(module), diagnostics
    if not elems:
        diagnostics.append("no eigen-elements found; semi-simple part is zero")
        return zero_lattice(module), diagnostics
    return normal_hull(lattice_reduce(elems, host=module)), diagnostics


def _is_semisimple_inner(module: AbModule) -> bool:
    part, _ = semisimple_part(module)
    return part.rank == module.rank and is_normal(part)


def is_semisimple(module: AbModule, cross_check=False) -> bool:
    """A module is semi-simple iff its semi-simple part is everything.

    With cross_check=True the answer is compared against the depth-zero
    embedding search; a mismatch raises ValidationFailed.
    """
    ok = _is_semisimple_inner(module)
    if cross_check and module.rank > 0:
        from .asymptotics import embed_into_xi
        from .errors import NoEmbeddingFound
        try:
            embed_into_xi(module, depth=0)
            embeds_flat = True
        except NoEmbeddingFound:
            embeds_flat = False
        if embeds_flat != ok:
            raise ValidationFailed(
                f"semi-simplicity check ({ok}) disagrees with the depth-0 "
                f"embedding search ({embeds_flat})")
    return ok


@dataclass
class Filtration:
    """Strictly increasing chain of normal a-stable lattices with
    semi-simple quotients; its length is the nilpotent order."""

    host: AbModule
    steps: tuple          # lattices S_1 c ... c S_d = E
    levels: tuple         # modules S_j / S_{j-1}, from ``_level_module``
    diagnostics: list = field(default_factory=list)

    @property
    def nilpotent_order(self) -> int:
        return len(self.steps)

    def to_json(self):
        return {
            "nilpotent_order": self.nilpotent_order,
            "step_ranks": [s.rank for s in self.steps],
        }


def _level_module(part: Lattice, diagnostics: list):
    """The module S_1(M) for the semi-simple part *part* of M = part.host:
    M itself when the part is all of it, else the part's sub-module
    structure, validated as semi-simple (a failure is a diagnostic).  None
    when the part is not a-stable; the quotient by it then raises."""
    if part.rank == part.host.rank:
        return part.host
    try:
        level = sub_module_structure(part).module
    except NotAStable as exc:
        diagnostics.append(f"eigen-span hull is not a-stable: {exc}")
        return None
    if not _is_semisimple_inner(level):
        diagnostics.append(
            "eigen-span hull failed its own semi-simplicity validation")
    return level


@derived
def semisimple_filtration(module: AbModule) -> Filtration:
    """S_1 = semi-simple part; S_{j+1} = preimage of the part of E/S_j."""
    diagnostics = []
    if module.rank == 0:
        return Filtration(module, (), (), diagnostics)
    part, diags = semisimple_part(module)
    diagnostics.extend(diags)
    if part.is_zero():
        raise ValidationFailed(
            "semi-simple part of a nonzero geometric module came out zero")
    steps, levels = [part], [_level_module(part, diagnostics)]
    while steps[-1].rank < module.rank:
        quot = quotient_module(module, steps[-1])
        qpart, qdiags = semisimple_part(quot.module)
        diagnostics.extend(qdiags)
        if qpart.is_zero():
            raise ValidationFailed(
                "filtration stalled: quotient has zero semi-simple part")
        levels.append(_level_module(qpart, diagnostics))
        nxt = quot.preimage_lattice(qpart)
        if nxt.rank <= steps[-1].rank:
            raise ValidationFailed("filtration failed to increase strictly")
        steps.append(nxt)
        if nxt.rank < module.rank:  # only the last quotient is read again
            quot.module.memo.clear()
    for s in steps:
        if not is_normal(s):
            diagnostics.append("a filtration step is not normal")
    return Filtration(module, tuple(steps), tuple(levels), diagnostics)


# -- primitive decomposition ---------------------------------------------

@dataclass
class PrimitiveSplit:
    """Decomposition along a set of exponent classes mod Z."""

    host: AbModule
    classes: tuple                # normalized class representatives
    not_part: Lattice             # E_[!=classes]: largest off-class normal sub
    quotient: Quotient | None     # E -> E^[classes]
    diagnostics: list = field(default_factory=list)

    @property
    def part_module(self) -> AbModule:
        if self.quotient is None:
            return self.host
        return self.quotient.module

    def project_lattice(self, lat):
        if self.quotient is None:
            return lat
        return self.quotient.project_lattice(lat)


def _sylvester_solve(p, q, shift, rhs):
    """Solve (p + shift I) X - X q = rhs exactly; raises if singular."""
    np_, nq = len(p), len(q)
    size = np_ * nq
    rows = []
    vec = []
    for i in range(np_):
        for j in range(nq):
            row = [Fraction(0)] * size
            for t in range(np_):
                row[t * nq + j] += p[i][t]
            row[i * nq + j] += shift
            for u in range(nq):
                row[i * nq + u] -= q[u][j]
            rows.append(row)
            vec.append(rhs[i][j])
    sol = qsolve(tuple(tuple(r) for r in rows), tuple(vec))
    if sol is None:
        raise ValidationFailed("singular Sylvester block across distinct classes")
    return tuple(tuple(sol[i * nq + j] for j in range(nq)) for i in range(np_))


def primitive_split(module: AbModule, classes) -> PrimitiveSplit:
    """Split off the largest normal sub-module with no Bernstein root in
    the given classes mod Z; the quotient is primitive for those classes.

    Works on the saturation, whose residue is block-split by generalized
    eigenvalue classes in a basis C (in-class columns first).  With A the
    a-matrix in that basis, the off-class columns (X; I) of a gauge
    transform H that block-diagonalizes A solve the one-sided equation

        A_ii X + A_io + b^2 X' = X B_oo,    B_oo = A_oi X + A_oo,

    order by order as Sylvester equations (solvable because distinct
    classes stay disjoint under integer shifts).  The off-class part is
    the kernel of the series map (x, y) -> inclusion . x - T_out . y,
    T_out = C (X; I), projected to x.  The part's characteristic Bernstein
    polynomial is compared with the class part of the module's; a
    mismatch is a diagnostic.  One split per module and set of classes.
    """
    return _primitive_split(
        module, tuple(sorted({class_mod_z(c) for c in classes})))


@derived
def _primitive_split(module: AbModule, cls_set) -> PrimitiveSplit:
    diagnostics = []
    cert = require_geometric(module)
    sat = saturate(module)
    res = sat.module.residue()
    k = len(res)
    eigvals = sorted({-v for v, _ in cert["roots"]})
    in_vals = [nu for nu in eigvals if class_mod_z(nu) in cls_set]
    out_vals = [nu for nu in eigvals if class_mod_z(nu) not in cls_set]

    if not out_vals:
        return _checked_split(module, cls_set, zero_lattice(module),
                              diagnostics)
    if not in_vals:
        return _checked_split(module, cls_set, full_lattice(module),
                              diagnostics)

    def gen_eigenspace(vals):
        m = identity(k)
        for nu in vals:
            factor = tuple(tuple(x - nu if i == j else x
                                 for j, x in enumerate(row))
                           for i, row in enumerate(res))
            for _ in range(k):
                m = mat_mul(factor, m)
        return nullspace(m)

    u_in = gen_eigenspace(in_vals)
    u_out = gen_eigenspace(out_vals)
    if len(u_in) + len(u_out) != k:
        raise ValidationFailed("generalized eigenspaces do not fill the module")
    cmat = tuple(tuple(col[i] for col in (list(u_in) + list(u_out)))
                 for i in range(k))
    t_out = _off_class_columns(sat.module, cmat, len(u_in))

    # x is off-class iff inclusion . x = T_out . y for some y: the x-part of
    # the kernel of [incl | -T_out]
    n = module.rank
    rows = [tuple(incl) + tuple(-e for e in t_row)
            for incl, t_row in zip(sat.inclusion, t_out)]
    kernel = kernel_of_series_map(rows, n + len(u_out), module.prec)
    e_not = lattice_reduce([module.element(v[:n]) for v in kernel],
                           host=module)
    if not is_normal(e_not):
        diagnostics.append("off-class kernel lattice is not normal")
    return _checked_split(module, cls_set, e_not, diagnostics)


def _add_product(acc, a, b):
    """acc += a . b, in place, for integer matrices given as lists of rows."""
    for acc_row, a_row in zip(acc, a):
        for a_t, b_row in zip(a_row, b):
            if a_t:
                for j, b_tj in enumerate(b_row):
                    acc_row[j] += a_t * b_tj


def _off_class_columns(module: AbModule, cmat, k_in):
    """T_out = C (X; I), X solving the one-sided gauge equation of
    ``primitive_split`` for the a-matrix A of the simple-pole *module* in
    the basis C, whose first k_in columns are in-class.  With X_0 = 0 and
    B_oo,1 = R_oo (R = A_1, the residue), order n = 2..p gives
    (R_ii + n - 1) X_{n-1} - X_{n-1} R_oo = K_n, where

        K_n = -A_{n,io} - sum_{m=2}^{n-1} A_{m,ii} X_{n-m}
              + sum_{l=1}^{n-2} X_l B_{oo,n-l},
        B_{oo,n} = A_{n,oo} + sum_{m=2}^{n-1} A_{m,oi} X_{n-m},

    and A_{p,io}, beyond the precision p, is dropped.

    The recursion runs on integer numerators.  Every coefficient block of
    A is kept over one common denominator d_a, each X_l over one running
    denominator d_x, and each B_oo,l over d_a d_x, so each entry of K_n is
    one integer sum over d_a d_x^2 and becomes one ``Fraction`` for
    ``_sylvester_solve``.  When a new X_{n-1} has a denominator d that does
    not divide d_x, d_x and every stored X and B_oo numerator are
    multiplied by lcm(d_x, d) / d_x.  Rationals are canonical, so the
    values are those of the same recursion over ``Fraction``.
    """
    p = module.prec
    k_out = module.rank - k_in
    a_t = smat_mul(smat_mul(smat_from_const(qinverse(cmat), p),
                            module.a_matrix, p),
                   smat_from_const(cmat, p), p)
    coeffs = [smat_coeff(a_t, m) for m in range(p)]
    d_a = lcm(*(c.denominator for cm in coeffs for row in cm for c in row))
    a_ii, a_io, a_oi, a_oo = [], [], [], []
    for cm in coeffs:
        num = [[c.numerator * (d_a // c.denominator) for c in row]
               for row in cm]
        a_ii.append([r[:k_in] for r in num[:k_in]])
        a_io.append([r[k_in:] for r in num[:k_in]])
        a_oi.append([r[:k_in] for r in num[k_in:]])
        a_oo.append([r[k_in:] for r in num[k_in:]])
    if any(map(any, a_io[1] + a_oi[1])):
        raise ValidationFailed("residue did not block-diagonalize")
    r_ii = tuple(r[:k_in] for r in coeffs[1][:k_in])
    r_oo = tuple(r[k_in:] for r in coeffs[1][k_in:])

    d_x = 1
    xs = [[[0] * k_out for _ in range(k_in)]]   # X_l, over d_x
    b_oo = [None, None]                         # B_oo,l (l >= 2), over d_a d_x
    x_coeffs = [((Fraction(0),) * k_out,) * k_in]  # X_l as rationals
    for n in range(2, p + 1):
        if n < p:
            acc = [[v * d_x for v in row] for row in a_oo[n]]
            for m in range(2, n):
                _add_product(acc, a_oi[m], xs[n - m])
            b_oo.append(acc)
        inner = [[0] * k_out for _ in range(k_in)]
        for m in range(2, n):
            _add_product(inner, a_ii[m], xs[n - m])
        outer = ([[-v * d_x * d_x for v in row] for row in a_io[n]]
                 if n < p else [[0] * k_out for _ in range(k_in)])
        for l in range(1, n - 1):
            _add_product(outer, xs[l], b_oo[n - l])
        den = d_a * d_x * d_x
        k_n = tuple(tuple(Fraction(o - d_x * v, den)
                          for o, v in zip(orow, irow))
                    for orow, irow in zip(outer, inner))
        x = _sylvester_solve(r_ii, r_oo, Fraction(n - 1), k_n)
        d = lcm(*(v.denominator for row in x for v in row))
        if d_x % d:
            f = lcm(d_x, d) // d_x
            d_x *= f
            for mat in xs[1:] + b_oo[2:]:
                for row in mat:
                    row[:] = [v * f for v in row]
        xs.append([[v.numerator * (d_x // v.denominator) for v in row]
                   for row in x])
        x_coeffs.append(x)

    x_mat = tuple(tuple(TruncSeries([x[i][j] for x in x_coeffs], p)
                        for j in range(k_out)) for i in range(k_in))
    return smat_mul(smat_from_const(cmat, p),
                    x_mat + smat_from_const(identity(k_out), p), p)


def _checked_split(module, cls_set, e_not, diagnostics):
    """The split with quotient E / e_not, or E itself when e_not is zero;
    the part's characteristic Bernstein polynomial must equal the class
    part of the module's."""
    quot = None if e_not.is_zero() else quotient_module(module, e_not)
    split = PrimitiveSplit(module, cls_set, e_not, quot, diagnostics)
    b_poly = bernstein_polynomial(module, mode="characteristic")
    if not b_poly.is_split():
        diagnostics.append("class comparison skipped: unsplit Bernstein factor")
        return split
    expected = [(v, m) for v, m in b_poly.roots if class_mod_z(-v) in cls_set]
    actual = bernstein_polynomial(split.part_module, mode="characteristic")
    if RationalPolynomial.from_roots(expected) != actual:
        diagnostics.append(
            "Bernstein polynomial of the class part does not match the "
            "class part of the Bernstein polynomial")
    return split


# -- higher Bernstein polynomials ------------------------------------------

@dataclass
class ClassLevels:
    alpha: Fraction
    nilpotent_order: int
    levels: tuple      # (j, delta_j, RationalPolynomial) per level

    def to_json(self):
        return {
            "alpha": rat_str(self.alpha),
            "nilpotent_order": self.nilpotent_order,
            "levels": [
                {"j": j, "delta": d, "poly": poly.to_json(),
                 "roots": [{"value": rat_str(v), "mult": m}
                           for v, m in poly.roots]}
                for j, d, poly in self.levels
            ],
        }


@dataclass
class HigherBernstein:
    total: RationalPolynomial
    classes: tuple                # ClassLevels per class, alpha ascending
    assembled: tuple              # B_j over all classes, j = 1..d
    product_check: bool
    roots_simple: bool
    degrees_non_increasing: bool
    diagnostics: list = field(default_factory=list)

    def to_json(self):
        return {
            "classes": [c.to_json() for c in self.classes],
            "B": [p.to_json() for p in self.assembled],
            "product_check": self.product_check,
            "roots_simple": self.roots_simple,
            "degrees_non_increasing": self.degrees_non_increasing,
        }


def higher_bernstein(fresco_or_module) -> HigherBernstein:
    """Per-class filtration Bernstein polynomials, shifted by corank.

    For each class alpha present in the Bernstein roots: filter the
    primitive part, take the Bernstein polynomial of each graded piece and
    shift level j by the rank of part/S_j.  The assembled product is
    validated against the Bernstein polynomial of the module.
    """
    return _higher_bernstein(
        getattr(fresco_or_module, "module", fresco_or_module))


@derived
def _higher_bernstein(module: AbModule) -> HigherBernstein:
    diagnostics = []
    b_total = bernstein_polynomial(module, mode="characteristic")
    if not b_total.is_split():
        raise NotGeometric("higher Bernstein polynomials need split rational roots")
    alphas = sorted({class_mod_z(-v) for v, _ in b_total.roots})
    per_class = []
    for alpha in alphas:
        split = primitive_split(module, {alpha})
        diagnostics.extend(split.diagnostics)
        part = split.part_module
        if part.rank == 0:
            continue
        filt = semisimple_filtration(part)
        diagnostics.extend(filt.diagnostics)
        levels = []
        for j, (step, level) in enumerate(zip(filt.steps, filt.levels), 1):
            delta = part.rank - step.rank
            poly = bernstein_polynomial(level, mode="characteristic")
            levels.append((j, delta, poly.shift(delta)))
        per_class.append(ClassLevels(alpha, filt.nilpotent_order,
                                     tuple(levels)))

    dmax = max((c.nilpotent_order for c in per_class), default=0)
    assembled = []
    for j in range(1, dmax + 1):
        acc = RationalPolynomial.one()
        for c in per_class:
            for (jj, _, poly) in c.levels:
                if jj == j:
                    acc = acc.mul(poly)
        assembled.append(acc)

    product = RationalPolynomial.one()
    for p in assembled:
        product = product.mul(p)
    product_ok = product == b_total
    simple_ok = all(m == 1 for p in assembled for _, m in p.roots)
    degs = [p.degree() for p in assembled]
    non_increasing = all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))
    if not product_ok:
        diagnostics.append("product of higher Bernstein polynomials != total")
    if not simple_ok:
        diagnostics.append("a higher Bernstein polynomial has a repeated root")
    if not non_increasing:
        diagnostics.append("higher Bernstein degrees increased along levels")
    return HigherBernstein(
        total=b_total, classes=tuple(per_class), assembled=tuple(assembled),
        product_check=product_ok, roots_simple=simple_ok,
        degrees_non_increasing=non_increasing, diagnostics=diagnostics)
