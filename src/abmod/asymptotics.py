"""The bridge to differential systems and log-power expansions.

Three views of the same structure: a simple-pole system z dF/dz = A(z) F
turns into a module by solving a e = b A(a+b) e as a b-adic fixed point;
geometric modules embed equivariantly into expansion modules; elements of
expansion modules are realized as exact sums of terms
c * s^(alpha+m-1) * log(s)^j, with multiplication by s and primitives
computed in closed form on those terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (AbmodError, HostMismatch, NoEmbeddingFound, NonSquare,
                     PrecisionExhausted, ValidationFailed)
from .lattices import _reduce_vectors, lattice_reduce, sub_module_structure
from .modules import (AbModule, ModuleElement, build_xi_tensor, derived,
                      module_from_matrix, smat_mul, smat_vec, xi_module)
from .ratpoly import RationalPolynomial
from .saturation import bernstein_polynomial, require_geometric, saturate
from .decomposition import (_solve_equivariance, class_mod_z,
                            higher_bernstein, semisimple_part)
from .series import DEFAULT_PREC, TruncSeries, rat, rat_str


# -- differential systems ------------------------------------------------

@dataclass
class DiffSystem:
    """z d/dz F = A(z) F with polynomial (or truncated series) entries."""

    entries: tuple      # k x k, each a tuple of z-coefficients (Fractions)

    def __post_init__(self):
        rows = tuple(tuple(tuple(rat(c) for c in e) for e in row)
                     for row in self.entries)
        if any(len(row) != len(rows) for row in rows):
            raise NonSquare("system matrix must be square")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_json(self):
        return {"size": self.size,
                "entries": [[[rat_str(c) for c in e] for e in row]
                            for row in self.entries]}

    @classmethod
    def from_json(cls, obj):
        return cls(tuple(tuple(tuple(rat(c) for c in e) for e in row)
                         for row in obj["entries"]))


def from_differential_system(sys: DiffSystem, prec=DEFAULT_PREC) -> AbModule:
    """Module representing the system: the unique action with
    a e_j = b * sum_i A_ij(a+b) e_i, found as a b-adic fixed point.

    Each nested application of a lands in b * (...), so iterating from the
    zero action gains at least one b-order per pass.
    """
    k = sys.size
    if k == 0:
        return AbModule([], prec=prec)
    z = TruncSeries.zero(prec)
    mat = [[z for _ in range(k)] for _ in range(k)]
    for _ in range(prec + 2):
        module = module_from_matrix([row[:] for row in mat], prec=prec)
        new = [[z for _ in range(k)] for _ in range(k)]
        for j in range(k):
            acc = module.zero()
            for i in range(k):
                poly = sys.entries[i][j]
                h = module.zero()
                for c in reversed(poly):
                    h = h.act_a(-1)
                    if c:
                        h = h + module.basis(i).scale(c)
                acc = acc + h
            col = acc.act_b()
            for i in range(k):
                new[i][j] = col.coords[i]
        if all(new[i][j].eq_shared(mat[i][j]) for i in range(k) for j in range(k)):
            return module_from_matrix(new, prec=prec)
        mat = new
    raise PrecisionExhausted(
        "fixed-point iteration for the differential system did not converge")


# -- embeddings into expansion modules ------------------------------------

@dataclass
class Embedding:
    """An injective equivariant map into an expansion module."""

    source: AbModule
    target: AbModule
    matrix: tuple                # target.rank x source.rank series matrix
    classes: tuple
    depth: int
    dim_v: int

    def apply(self, x: ModuleElement) -> ModuleElement:
        if x.host is not self.source:
            raise HostMismatch("element does not live in the embedding source")
        return self.target.element(
            smat_vec(self.matrix, x.coords, self.target.prec))

    def check_equivariance(self) -> bool:
        """Phi(a e_j) = a Phi(e_j) and Phi(b e_j) = b Phi(e_j) for every
        basis vector e_j, with Phi(e_j) computed once per column."""
        for j in range(self.source.rank):
            e = self.source.basis(j)
            image = self.apply(e)
            if not self.apply(e.act_a()).eq_shared(image.act_a()):
                return False
            if not self.apply(e.act_b()).eq_shared(image.act_b()):
                return False
        return True


def _series_matrix_rank(matrix, dim, prec) -> int:
    cols = [tuple(matrix[i][j] for i in range(dim))
            for j in range(len(matrix[0]))]
    basis, _, _ = _reduce_vectors(cols, dim, prec)
    return len(basis)


@derived
def _xi_block_solution(src: AbModule, alpha, depth):
    """The equivariant maps src -> Xi_alpha^(depth), solved once per source:
    every Xi^(depth) (x) V target is a direct sum of these blocks."""
    return _solve_equivariance(src, xi_module(alpha, depth, src.prec))


def _xi_tensor_solution(src: AbModule, classes, depth: int, dim_v: int):
    """``_solve_equivariance(src, build_xi_tensor(classes, depth, dim_v, p))``
    with p = src.prec, assembled from one solve per class.

    The target's a-matrix is block diagonal, one Xi_alpha^(depth) block per
    (class, copy), and every equation (t, j, n) involves only the unknowns
    of t's block.  The solver keeps the unique reduced row-echelon form
    with the largest parameter as pivot, and that of a system over disjoint
    unknowns is the union of the blocks' forms.  Block bi starts at row
    t0 = bi*(depth+1), and its local parameter q = n*size_b + r (size_b =
    (depth+1)*k) is the global n*size + t0*k + r, which keeps the (n, t, j)
    order within the block.  So ``live`` and ``build`` are the monolithic
    solve's.
    """
    k = src.rank
    size_b = (depth + 1) * k
    size = len(classes) * dim_v * size_b
    live, blocks = [], []
    for bi, alpha in enumerate(a for a in classes for _ in range(dim_v)):
        b_live, b_build = _xi_block_solution(src, alpha, depth)
        pairs = [(n * size + bi * size_b + r, q)
                 for q in b_live for n, r in (divmod(q, size_b),)]
        live.extend(g for g, _ in pairs)
        blocks.append((pairs, b_build))
    live.sort()

    def build(assign):
        return tuple(row for pairs, b_build in blocks
                     for row in b_build({q: assign[g] for g, q in pairs
                                         if g in assign}))

    return live, build


@derived
def embed_into_xi(module: AbModule, depth=None, dim_v=None) -> Embedding:
    """Injective equivariant map into an expansion module.

    Classes come from the Bernstein roots mod Z; the log depth is searched
    upward (0 .. rank-1) unless forced, and the multiplicity space starts
    at the rank of the semi-simple part.  The unknown coordinate series
    are solved order by order, one solve per (class, depth) block of the
    target, shared by every dim V (``_xi_tensor_solution``).  The free
    parameters are then set to each unit vector and to (1, 2, 3, ...) in
    turn, and the first choice of full column rank over the series
    fraction field is returned.  A unit vector is nonzero only on its
    block's depth+1 rows, so when depth+1 < rank its candidates cannot
    have full rank and are not built; their rank checks could not raise
    either, since the reduction never lowers the least entry precision.
    Every choice solves the equations through order p - 1, and the image
    of an injective equivariant map has the source's Bernstein polynomial,
    so a failed equivariance check or a mismatch raises ValidationFailed.
    A rank-0 module has the empty embedding, at depth 0 and dim V 1.
    """
    cert = require_geometric(module)
    sat = saturate(module)
    src = sat.module
    k = src.rank
    classes = tuple(sorted({class_mod_z(-v) for v, _ in cert["roots"]}))
    prec = src.prec
    if k == 0:     # the empty map into the rank-0 expansion module
        return Embedding(source=module, target=build_xi_tensor((), 0, 1, prec),
                         matrix=(), classes=(), depth=0, dim_v=1)

    if dim_v is not None:
        dim_candidates = [dim_v]
    else:
        try:
            s1, _ = semisimple_part(src)
            vmin = max(1, s1.rank)
        except AbmodError:  # fall back to the worst case
            vmin = 1
        dim_candidates = list(range(vmin, k + 1)) or [1]
    depth_candidates = [depth] if depth is not None else list(range(k))

    searched = []
    for n_depth in depth_candidates:
        for dv in dim_candidates:
            searched.append((n_depth, dv))
            target = build_xi_tensor(classes, n_depth, dv, prec)
            live, build = _xi_tensor_solution(src, classes, n_depth, dv)
            if not live:
                continue

            candidates = ([{q: Fraction(1)} for q in live]
                          if n_depth + 1 >= k else [])
            candidates.append({q: Fraction(i + 1)
                               for i, q in enumerate(live)})
            for assign in candidates:
                mat = build(assign)
                if _series_matrix_rank(mat, target.rank, prec) < k:
                    continue
                emb = Embedding(source=src, target=target, matrix=mat,
                                classes=classes, depth=n_depth, dim_v=dv)
                if not emb.check_equivariance():
                    raise ValidationFailed(
                        "solved map is not equivariant for (depth, dimV) = "
                        f"{(n_depth, dv)}")
                if _image_bernstein(emb) != bernstein_polynomial(
                        src, mode="minimal"):
                    raise ValidationFailed(
                        "image Bernstein polynomial differs from the source "
                        f"for (depth, dimV) = {(n_depth, dv)}")
                return _compose_with_inclusion(module, sat, emb)
    raise NoEmbeddingFound(
        "no injective equivariant map found; searched (depth, dimV) pairs "
        + ", ".join(map(str, searched)))


def _image_bernstein(emb: Embedding) -> RationalPolynomial:
    cols = [emb.target.element(tuple(emb.matrix[i][j]
                                     for i in range(emb.target.rank)))
            for j in range(emb.source.rank)]
    lat = lattice_reduce(cols, host=emb.target)
    sub = sub_module_structure(lat)
    return bernstein_polynomial(sub.module, mode="minimal")


def _compose_with_inclusion(module: AbModule, sat, emb: Embedding) -> Embedding:
    """Pull an embedding of the saturation back to the original module."""
    matrix = smat_mul(emb.matrix, sat.inclusion, emb.target.prec)
    return Embedding(source=module, target=emb.target, matrix=matrix,
                     classes=emb.classes, depth=emb.depth, dim_v=emb.dim_v)


# -- log-power expansions --------------------------------------------------

@dataclass(frozen=True)
class ExpansionTerm:
    """One term c * s^(alpha+m-1) * log(s)^j of an expansion."""

    alpha: Fraction
    m: int
    j: int
    coeff: Fraction

    def exponent(self) -> Fraction:
        return self.alpha + self.m - 1

    def render(self) -> str:
        c = self.coeff
        if c.denominator == 1:
            cstr = str(c.numerator)
        else:
            cstr = f"({rat_str(c)})"
        e = self.exponent()
        parts = [cstr]
        if e != 0:
            estr = rat_str(e) if (e.denominator == 1 and e >= 0) else f"({rat_str(e)})"
            parts.append(f"s^{estr}")
        if self.j == 1:
            parts.append("log(s)")
        elif self.j > 1:
            parts.append(f"log(s)^{self.j}")
        return "*".join(parts)

    def to_json(self):
        return {"alpha": rat_str(self.alpha), "m": self.m, "j": self.j,
                "coeff": rat_str(self.coeff)}


class LogPowerFunction:
    """Exact finite sums of terms c s^(alpha+m-1) log(s)^j, closed under
    multiplication by s and primitives vanishing at 0."""

    __slots__ = ("terms", "order_cap")

    def __init__(self, terms=None, order_cap=64):
        self.terms = dict(terms or {})   # (alpha, m, j) -> Fraction
        self.order_cap = order_cap

    def _add_term(self, key, c):
        if key[1] > self.order_cap or not c:
            return
        v = self.terms.get(key, Fraction(0)) + c
        if v:
            self.terms[key] = v
        else:
            self.terms.pop(key, None)

    def add(self, other: "LogPowerFunction") -> "LogPowerFunction":
        out = LogPowerFunction(self.terms, self.order_cap)
        for key, c in other.terms.items():
            out._add_term(key, c)
        return out

    def scale(self, c) -> "LogPowerFunction":
        c = rat(c)
        return LogPowerFunction({k: v * c for k, v in self.terms.items()},
                                self.order_cap)

    def mul_s(self) -> "LogPowerFunction":
        out = LogPowerFunction(order_cap=self.order_cap)
        for (alpha, m, j), c in self.terms.items():
            out._add_term((alpha, m + 1, j), c)
        return out

    def integrate(self) -> "LogPowerFunction":
        """Primitive vanishing at 0, term by term:
        int_0^s t^(b-1) log^j = (s^b / b) log^j - (j/b) int_0^s t^(b-1) log^(j-1)."""
        out = LogPowerFunction(order_cap=self.order_cap)
        for (alpha, m, j), c in self.terms.items():
            beta = alpha + m
            coeff = c
            jj = j
            while True:
                out._add_term((alpha, m + 1, jj), coeff / beta)
                if jj == 0:
                    break
                coeff = -coeff * jj / beta
                jj -= 1
        return out

    def apply_series(self, s: TruncSeries) -> "LogPowerFunction":
        """S(b) acting by iterated primitives."""
        out = LogPowerFunction(order_cap=self.order_cap)
        cur = self
        for q, c in enumerate(s.coeffs):
            if q > self.order_cap:
                break
            if c:
                out = out.add(cur.scale(c))
            cur = cur.integrate()
        return out

    def term_list(self, order=None):
        keys = sorted(self.terms)
        out = []
        for (alpha, m, j) in keys:
            if order is not None and m > order:
                continue
            out.append(ExpansionTerm(alpha, m, j, self.terms[(alpha, m, j)]))
        return out

    def eq_through_order(self, other: "LogPowerFunction", order: int) -> bool:
        def upto(f):
            return {k: v for k, v in f.terms.items() if k[1] <= order}
        return upto(self) == upto(other)


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def basis_realization(host: AbModule, index: int, order_cap=64) -> LogPowerFunction:
    """The expansion-function realization of a basis vector of an
    expansion module: e_j corresponds to (alpha^j / j!) s^(alpha-1) log^j."""
    if host.xi is None:
        raise ValueError("module does not carry expansion-block structure")
    alpha, j, _copy = host.xi.legend[index]
    c = Fraction(alpha) ** j / _factorial(j)
    return LogPowerFunction({(alpha, 0, j): c}, order_cap)


def realize_expansion(x: ModuleElement, order: int):
    """Exact expansion terms of an element of an expansion module, up to
    s-order *order* (coefficients of s^(alpha+m-1) with m <= order).

    Terms from different copies of the multiplicity space are summed.
    """
    return realize_function(x, order + 2).term_list(
        order=min(order, x.host.prec - 1))


def realize_function(x: ModuleElement, order_cap: int) -> LogPowerFunction:
    host = x.host
    if host.xi is None:
        raise ValueError("element does not live in an expansion module")
    total = LogPowerFunction(order_cap=order_cap)
    for t, coeff in enumerate(x.coords):
        base = basis_realization(host, t, order_cap)
        total = total.add(base.apply_series(coeff))
    return total


# -- singular term reports --------------------------------------------------

@dataclass
class SingularClassReport:
    alpha: Fraction
    nilpotent_order: int
    top_roots: tuple           # roots of the top Bernstein polynomial
    terms: tuple               # (two_alpha_minus_2, m, log_power)

    def to_json(self):
        return {
            "alpha": rat_str(self.alpha),
            "nilpotent_order": self.nilpotent_order,
            "top_roots": [rat_str(r) for r in self.top_roots],
            "predicted_terms": [
                {"modulus_exponent": rat_str(e), "m": m, "log_power": lp}
                for e, m, lp in self.terms
            ],
        }


@dataclass
class SingularTermReport:
    """Algebraic predictions of singular expansion terms, per class.

    For each class alpha with nilpotent order d, each root -alpha-m of the
    top-level Bernstein polynomial predicts a term with modulus exponent
    2 alpha - 2, holomorphic shift m, and log power d-1 (d when alpha = 1).
    No integral is evaluated; this reports exponents only.
    """

    classes: tuple
    diagnostics: list = field(default_factory=list)

    def to_json(self):
        return {"classes": [c.to_json() for c in self.classes],
                "note": "algebraic predictions; antiholomorphic exponent m' "
                        "is not determined by this computation"}


def singular_term_report(fresco_or_module) -> SingularTermReport:
    hb = higher_bernstein(fresco_or_module)
    classes = []
    diagnostics = list(hb.diagnostics)
    for c in hb.classes:
        d = c.nilpotent_order
        top = c.levels[-1][2] if c.levels else None
        roots = tuple(v for v, _ in (top.roots if top else ()))
        log_power = d if c.alpha == 1 else d - 1
        terms = []
        for r in roots:
            m = -r - c.alpha
            if m.denominator != 1 or m < 0:
                diagnostics.append(
                    f"root {rat_str(r)} is not of the form -alpha-m for "
                    f"alpha={rat_str(c.alpha)}")
                continue
            terms.append((2 * c.alpha - 2, int(m), log_power))
        classes.append(SingularClassReport(
            alpha=c.alpha, nilpotent_order=d, top_roots=roots,
            terms=tuple(terms)))
    return SingularTermReport(classes=tuple(classes), diagnostics=diagnostics)
