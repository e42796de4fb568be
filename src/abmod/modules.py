"""Free finite-rank modules over truncated series with a prescribed a-action.

A module is determined by its a-matrix: column j holds the coordinates of
a . e_j.  The induced action on a general element S_1 e_1 + ... + S_k e_k
adds the commutator twist b^2 S' per coordinate, so the defining relation
a(S x) = S (a x) + b^2 S' x holds automatically.

The action is one fused row sum per coordinate: ``act_a(m)`` computes
(a - m b) x, the a-matrix products, the twist and -m b x of each
coordinate, as one integer accumulation in ``TruncSeries.dot`` (through
``smat_vec``), with no intermediate series.  The saturation chain uses it
at a - m b and the differential-system fixed point at a + b.
"""

from __future__ import annotations

import functools

from .errors import BadAlpha, HostMismatch, NonSquare, PrecisionExhausted
from .operators import AbOperator
from .series import DEFAULT_PREC, TruncSeries, rat, rat_str


class AbModule:
    """Rank-k module over truncated series with an a-action matrix; it
    never changes, and ``memo`` keeps what is derived from it.

    ``legend`` describes an expansion module: one (alpha, j) per basis
    vector, which stands for the term s^(alpha-1) log^j s.  It is None for
    a module that is not an expansion module."""

    __slots__ = ("rank", "prec", "a_matrix", "legend", "memo")

    def __init__(self, a_matrix, prec=None, legend=None):
        rows = tuple(tuple(entry for entry in row) for row in a_matrix)
        k = len(rows)
        for row in rows:
            if len(row) != k:
                raise NonSquare(f"a-matrix must be square, got row of length {len(row)}")
        if k:
            p = min(e.prec for row in rows for e in row)
            if prec is not None:
                p = min(p, prec)
            rows = tuple(tuple(e.truncate(p) for e in row) for row in rows)
        else:
            p = prec if prec is not None else DEFAULT_PREC
        self.rank = k
        self.prec = p
        self.a_matrix = rows
        self.legend = None if legend is None else tuple(legend)
        self.memo = {}

    # -- elements -------------------------------------------------------

    def element(self, coords) -> "ModuleElement":
        coords = tuple(c if isinstance(c, TruncSeries)
                       else TruncSeries.constant(rat(c), self.prec)
                       for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates")
        return ModuleElement(self, tuple(c.truncate(self.prec) for c in coords))

    def basis(self, j: int) -> "ModuleElement":
        return self.element([TruncSeries.constant(int(i == j), self.prec)
                             for i in range(self.rank)])

    def basis_elements(self):
        return [self.basis(j) for j in range(self.rank)]

    def zero(self) -> "ModuleElement":
        return self.element([TruncSeries.zero(self.prec)] * self.rank)

    # -- structure -------------------------------------------------------

    def is_simple_pole(self) -> bool:
        """True iff every a-matrix entry has valuation >= 1."""
        for row in self.a_matrix:
            for e in row:
                if e.prec < 1:
                    raise PrecisionExhausted("no known coefficients in a-matrix")
                if e.coeffs[0] != 0:
                    return False
        return True

    def residue(self):
        """Constant matrix of b^1-coefficients; requires a simple pole."""
        if not self.is_simple_pole():
            raise ValueError("residue requires a simple pole")
        out = []
        for row in self.a_matrix:
            r = []
            for e in row:
                if e.prec < 2:
                    raise PrecisionExhausted(
                        "residue needs order-1 coefficients beyond precision")
                r.append(e.coeffs[1])
            out.append(tuple(r))
        return tuple(out)

    def same_action(self, other: "AbModule") -> bool:
        if self.rank != other.rank:
            return False
        return all(self.a_matrix[i][j].eq_shared(other.a_matrix[i][j])
                   for i in range(self.rank) for j in range(self.rank))

    def render(self) -> str:
        rows = []
        for row in self.a_matrix:
            rows.append("[" + ", ".join(e.render() for e in row) + "]")
        return "[" + ", ".join(rows) + "]"

    def __repr__(self):
        return f"AbModule(rank={self.rank}, prec={self.prec})"

    def to_json(self):
        return {
            "rank": self.rank,
            "prec": self.prec,
            "a_matrix": [[e.to_json() for e in row] for row in self.a_matrix],
        }


class ModuleElement:
    """Coordinate vector of truncated series in a host module."""

    __slots__ = ("host", "coords")

    def __init__(self, host: AbModule, coords):
        self.host = host
        self.coords = tuple(coords)

    def _check(self, other: "ModuleElement"):
        if other.host is not self.host:
            raise HostMismatch("elements live in different modules")

    def __add__(self, other):
        self._check(other)
        return ModuleElement(self.host,
                             tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(self.host,
                             tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return ModuleElement(self.host, tuple(-x for x in self.coords))

    def scale(self, c) -> "ModuleElement":
        c = rat(c)
        return ModuleElement(self.host, tuple(x.scale(c) for x in self.coords))

    def mul_series(self, s: TruncSeries) -> "ModuleElement":
        cap = self.host.prec
        return ModuleElement(self.host,
                             tuple(s.mul_sharp(x, cap=cap) for x in self.coords))

    def act_a(self, m=0) -> "ModuleElement":
        """(a - m b) x, the a-action when m = 0: one fused row sum per
        coordinate, with the precision of ``act_a() - act_b().scale(m)``
        for m != 0."""
        return ModuleElement(self.host, smat_vec(
            self.host.a_matrix, self.coords, self.host.prec, m))

    def act_b(self) -> "ModuleElement":
        cap = self.host.prec
        return ModuleElement(self.host,
                             tuple(x.shift(1, cap=cap) for x in self.coords))

    def act(self, op: AbOperator) -> "ModuleElement":
        """Apply an operator in right-normal form."""
        host = self.host
        total = host.zero()
        for q in sorted(op.terms):
            poly = op.terms[q]
            part = host.zero()
            for c in reversed(poly):
                part = part.act_a()
                if c:
                    part = part + self.scale(c)
            for _ in range(q):
                part = part.act_b()
            total = total + part
        return total

    def is_zero_known(self) -> bool:
        return all(c.is_zero_known() for c in self.coords)

    def valuation_lower_bound(self) -> int:
        return min((c.valuation_lower_bound() for c in self.coords),
                   default=self.host.prec)

    def eq_shared(self, other) -> bool:
        self._check(other)
        return all(x.eq_shared(y) for x, y in zip(self.coords, other.coords))

    def __eq__(self, other):
        if isinstance(other, ModuleElement):
            return self.eq_shared(other)
        return NotImplemented

    __hash__ = None

    def render(self) -> str:
        frags = []
        for i, c in enumerate(self.coords):
            if c.is_zero_known():
                continue
            frags.append(f"({c.render()})*e{i}")
        return " + ".join(frags) if frags else "0"

    def __repr__(self):
        return f"ModuleElement({self.render()})"


def derived(fn):
    """Compute ``fn(module, *args)`` once per module object.

    The result is kept in the module's memo under the function and the
    other arguments, defaults filled in, so every caller gets the same
    object and must not mutate it.  A call that raises keeps nothing.
    The parameter names and defaults are read once, here.
    """
    code = fn.__code__
    names = code.co_varnames[1:code.co_argcount]
    given = fn.__defaults__ or ()
    defaults = dict(zip(names[len(names) - len(given):], given))

    @functools.wraps(fn)
    def once(module, *args, **kwargs):
        if len(args) < len(names):
            try:
                args += tuple(kwargs.pop(n) if n in kwargs else defaults[n]
                              for n in names[len(args):])
            except KeyError as exc:
                raise TypeError(f"{fn.__name__}() missing argument "
                                f"{exc}") from None
        if kwargs:
            raise TypeError(f"{fn.__name__}() got an unexpected keyword "
                            f"argument {next(iter(kwargs))!r}")
        key = (fn,) + args
        if key not in module.memo:
            module.memo[key] = fn(module, *args)
        return module.memo[key]

    return once


# -- constructions -----------------------------------------------------

def module_from_matrix(mat, prec=None) -> AbModule:
    """Module with a . e_j = sum_i mat[i][j] e_i."""
    return AbModule(mat, prec=prec)


def module_from_left_form(pairs, prec=DEFAULT_PREC) -> AbModule:
    """Companion module of a monic-in-a left form sum T_m(b) a^m.

    The classes of 1, a, ..., a^(k-1) form the basis; a pushes each basis
    vector up and reduces a^k through the relation (T_k must be a unit).
    """
    by_m = dict(pairs)
    k = max(by_m)
    lead = by_m[k]
    lead_inv = lead.invert()
    p = min([prec] + [t.prec for t in by_m.values()])
    cols = []
    for j in range(k - 1):
        col = [TruncSeries.zero(p) for _ in range(k)]
        col[j + 1] = TruncSeries.one(p)
        cols.append(col)
    last = []
    for m in range(k):
        t = by_m.get(m)
        if t is None:
            last.append(TruncSeries.zero(p))
        else:
            last.append(-(lead_inv * t))
    cols.append(last)
    mat = [[cols[j][i] for j in range(k)] for i in range(k)]
    return AbModule(mat, prec=p)


def xi_module(alpha, depth, prec=DEFAULT_PREC) -> AbModule:
    """The expansion module with basis e_0..e_N and a e_j = alpha b (e_j + e_{j-1})."""
    alpha = rat(alpha)
    if not (0 < alpha <= 1):
        raise BadAlpha(f"alpha must be in (0, 1], got {rat_str(alpha)}")
    k = depth + 1
    ab = TruncSeries([0, alpha], prec)
    z = TruncSeries.zero(prec)
    mat = [[ab if (i == j or i == j - 1) else z for j in range(k)]
           for i in range(k)]
    return AbModule(mat, prec=prec, legend=[(alpha, j) for j in range(k)])


def build_xi_tensor(alphas, depth, dim_v=1, prec=DEFAULT_PREC) -> AbModule:
    """Direct sum over alphas of Xi_alpha^(depth) tensored with a dim_v
    space: one Xi_alpha^(depth) block per (class, copy), duplicate alphas
    dropped."""
    classes = dict.fromkeys(rat(a) for a in alphas)
    if depth < 0 or dim_v < 1:
        raise BadAlpha("need depth >= 0 and dim_v >= 1")
    bases = [xi_module(a, depth, prec) for a in classes]
    blocks = [m for m in bases for _ in range(dim_v)]
    return AbModule(_block_diag([m.a_matrix for m in blocks], prec),
                    prec=prec, legend=[t for m in blocks for t in m.legend])


def direct_sum(*mods: AbModule) -> AbModule:
    """The block-diagonal sum; an expansion module when every summand is
    one, its legend the summands' legends in order."""
    prec = min(m.prec for m in mods)
    legend = None
    if all(m.legend is not None for m in mods):
        legend = [t for m in mods for t in m.legend]
    return AbModule(_block_diag([m.a_matrix for m in mods], prec), prec=prec,
                    legend=legend)


def module_e_lambda(lam, prec=DEFAULT_PREC) -> AbModule:
    """Rank-one module with a e = lam * b e."""
    return AbModule([[TruncSeries([0, rat(lam)], prec)]], prec=prec)


def _block_diag(mats, prec):
    total = sum(len(m) for m in mats)
    z = TruncSeries.zero(prec)
    out = [[z] * total for _ in range(total)]
    off = 0
    for m in mats:
        k = len(m)
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = m[i][j]
        off += k
    return out


# -- series matrix utilities (one product kernel for every layer) -----

def smat_vec(mat, vec, cap, m=None):
    """mat . vec for a series matrix and vector, at precision <= cap; with
    an integer m, (mat - m b) . vec + b^2 vec', the action of a - m b on
    the coordinates vec when mat is the a-matrix.

    A known-zero matrix or vector entry of precision >= cap is skipped:
    its products have precision >= cap, so adding them would leave the
    row as it is.  A zero entry of lower precision still lowers the
    precision of the rows it meets.

    Each row is one fused ``TruncSeries.dot`` of its terms: one integer
    accumulation at the least of cap and every term's ``mul_sharp``
    precision, which also adds the twist and -m b of its own coordinate.
    """
    skip = [x.prec >= cap and not any(x.coeffs) for x in vec]
    out = []
    for i, row in enumerate(mat):
        out.append(TruncSeries.dot(
            [(e, x) for e, x, zero in zip(row, vec, skip)
             if not (zero or (e.prec >= cap and not any(e.coeffs)))], cap,
            None if m is None or skip[i] else (vec[i], m)))
    return tuple(out)


def smat_mul(a, b, cap):
    """a . b for series matrices, one smat_vec per column of b."""
    cols = [smat_vec(a, col, cap) for col in zip(*b)]
    return tuple(tuple(col[i] for col in cols) for i in range(len(a)))


def smat_from_const(m, prec):
    return tuple(tuple(TruncSeries.constant(c, prec) for c in row) for row in m)


def smat_coeff(mat, m):
    """The constant matrix of the b^m coefficients of a series matrix."""
    return tuple(tuple(e.coeffs[m] for e in row) for row in mat)
