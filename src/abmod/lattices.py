"""Lattices: finitely generated sub-modules over the truncated-series DVR.

The normal form is pivot-based Hermite reduction: pick the entry of lowest
valuation (ties broken by coordinate, then by generator order), normalize
the pivot entry to a pure power b^v, eliminate that coordinate everywhere
else.  In the resulting basis, listed in processing order,

  * basis[j] has exact zeros at all earlier pivot coordinates,
  * basis[j][pivot_j] = b^(v_j) exactly,
  * every entry of basis[j] has valuation >= v_j,

which makes membership a straight forward-elimination and keeps the
valuation-aware precision tracking from ever inventing coefficients.
The last property is what ``normal_hull`` relies on: it divides each basis
vector by its pivot power b^(v_j) exactly.

There is one reduction and one forward elimination.  A reduction that
tracks generator coordinates (``lattice_reduce(track=True)``,
``kernel_of_series_map``) appends a row of the identity to each vector as
trailing coordinates, which ``_reduce_vectors`` carries through every row
operation but never pivots on or zero-tests.  Membership coordinates and
quotient projections both come from ``Lattice._eliminate``.
"""

from __future__ import annotations

from .errors import (HostMismatch, NotAStable, NotNormal, PrecisionExhausted)
from .modules import AbModule, ModuleElement, smat_vec
from .series import TruncSeries


class Lattice:
    """Reduced generating set of a sub-module, with pivot data."""

    __slots__ = ("host", "basis", "pivots", "tracks", "ngens")

    def __init__(self, host, basis, pivots, tracks=None, ngens=0):
        self.host = host
        self.basis = tuple(basis)       # list of coordinate vectors (tuples)
        self.pivots = tuple(pivots)     # (coord, valuation) per basis vector
        self.tracks = tuple(tracks) if tracks is not None else None
        self.ngens = ngens

    @property
    def rank(self) -> int:
        return len(self.basis)

    def basis_elements(self):
        return [ModuleElement(self.host, vec) for vec in self.basis]

    def is_zero(self) -> bool:
        return not self.basis

    def member(self, x) -> bool:
        return self.member_coords(x) is not None

    def member_coords(self, x):
        """Coordinates of x in the pivot basis, or None if not a member."""
        found = self._eliminate(_coerce_vec(self, x))
        if found is None or not all(e.decided_zero("membership residual")
                                    for e in found[1]):
            return None
        return found[0]

    def _eliminate(self, vec):
        """Forward elimination of a coordinate vector against the basis:
        (pivot coordinates, residual), or None when a pivot entry has a
        nonzero coefficient below its pivot valuation."""
        r = list(vec)
        coords = []
        for g, (p, v) in zip(self.basis, self.pivots):
            entry = r[p]
            low = entry.coeffs[:min(v, entry.prec)]
            if any(c for c in low):
                return None
            if entry.prec - v < 1:
                raise PrecisionExhausted(
                    "membership needs coefficients beyond precision "
                    f"(pivot valuation {v}, known precision {entry.prec})")
            c = entry.divide_bpow(v)
            coords.append(c)
            if not c.is_zero_known():
                for i in range(len(r)):
                    r[i] = r[i].sub_mul(c, g[i], cap=self.host.prec)
            r[p] = TruncSeries.zero(r[p].prec)
        return coords, r

    def contains(self, other: "Lattice") -> bool:
        return all(self.member(ModuleElement(self.host, v)) for v in other.basis)

    def eq(self, other: "Lattice") -> bool:
        if self.host is not other.host:
            raise HostMismatch("lattices in different modules")
        if len(self.basis) != len(other.basis):
            return False
        return self.contains(other) and other.contains(self)

    def generator_coords(self, x):
        """Coordinates of x in terms of the original generators (if tracked)."""
        if self.tracks is None:
            raise ValueError("lattice was reduced without tracking")
        c = self.member_coords(x)
        if c is None:
            return None
        by_gen = [tuple(trk[i] for trk in self.tracks)
                  for i in range(self.ngens)]
        return list(smat_vec(by_gen, c, self.host.prec))

    def __repr__(self):
        return f"Lattice(rank={self.rank}, pivots={self.pivots})"


def _coerce_vec(lat, x):
    if isinstance(x, ModuleElement):
        if x.host is not lat.host:
            raise HostMismatch("element does not live in the lattice's module")
        return x.coords
    return tuple(x)


# -- core reduction ----------------------------------------------------

def _reduce_vectors(vectors, dim, prec):
    """Hermite reduction of raw series vectors on their first *dim*
    coordinates.

    Returns (basis, pivots, dropped): the reduced vectors with their
    (coordinate, valuation) pivots, and the vectors that reduced to zero.
    Coordinates past *dim* are tracks: they undergo every row operation
    but are never pivoted on or zero-tested, so a vector extended by its
    row of the identity (``_with_identity``) ends with its coordinates in
    the generators, and a dropped one with a relation among them.
    """
    work = [list(v) for v in vectors]
    basis, pivots, dropped = [], [], []

    def sub_scaled(dst, q, src):
        for i in range(len(dst)):
            dst[i] = dst[i].sub_mul(q, src[i], cap=prec)

    while True:
        # one scan per vector: drop it when its first dim coordinates are
        # decided zero, and pick the pivot, the minimal (valuation,
        # coordinate, index among the survivors)
        alive, best = [], None
        for vec in work:
            live = False
            for coord in range(dim):
                v = vec[coord].known_valuation()
                if v is None:
                    if not live:
                        vec[coord].decided_zero("lattice generator entry")
                    continue
                live = True
                key = (v, coord, len(alive))
                if best is None or key < best:
                    best = key
            (alive if live else dropped).append(vec)
        work = alive
        if not work:
            break
        v, coord, idx = best
        g = work.pop(idx)

        uinv = g[coord].divide_bpow(v).invert()
        for i in range(len(g)):
            g[i] = uinv.mul_sharp(g[i], cap=prec)
        g[coord] = TruncSeries.b_power(v, g[coord].prec)

        # eliminate the pivot coordinate from every other vector
        for vec in work:
            low, high = vec[coord].split_at(v)
            if not low.is_zero_known():
                raise PrecisionExhausted(
                    "pivot minimality violated; cannot reduce exactly")
            if not high.is_zero_known():
                sub_scaled(vec, high, g)
            vec[coord] = TruncSeries.zero(vec[coord].prec)
        for bvec in basis:
            low, high = bvec[coord].split_at(v)
            if not high.is_zero_known():
                sub_scaled(bvec, high, g)
                bvec[coord] = low
        basis.append(g)
        pivots.append((coord, v))

    return [tuple(b) for b in basis], pivots, dropped


def _with_identity(vectors, prec):
    """Each vector followed by its row of the identity, as tracks."""
    n = len(vectors)
    return [tuple(vec) + tuple(TruncSeries.constant(int(i == j), prec)
                               for j in range(n))
            for i, vec in enumerate(vectors)]


def lattice_reduce(gens, host=None, track=False) -> Lattice:
    """Valuation-pivot normal form of the span of the generators."""
    elems = list(gens)
    if host is None:
        if not elems:
            raise ValueError("empty generator list needs an explicit host")
        host = elems[0].host
    vectors = []
    for g in elems:
        if isinstance(g, ModuleElement):
            if g.host is not host:
                raise HostMismatch("generators live in different modules")
            vectors.append(g.coords)
        else:
            vectors.append(tuple(g))
    k = host.rank
    if not track:
        basis, pivots, _ = _reduce_vectors(vectors, k, host.prec)
        return Lattice(host, basis, pivots, None, len(vectors))
    basis, pivots, _ = _reduce_vectors(_with_identity(vectors, host.prec),
                                       k, host.prec)
    return Lattice(host, [b[:k] for b in basis], pivots,
                   [b[k:] for b in basis], len(vectors))


def full_lattice(host: AbModule) -> Lattice:
    """The whole host, in the normal form its reduction would give: the
    identity basis with pivots (j, 0)."""
    if host.rank and host.prec < 1:
        raise PrecisionExhausted("cannot decide whether lattice generator "
                                 "entry vanishes: no known coefficients")
    basis = [e.coords for e in host.basis_elements()]
    return Lattice(host, basis, [(j, 0) for j in range(host.rank)], None,
                   host.rank)


def zero_lattice(host: AbModule) -> Lattice:
    return Lattice(host, (), (), None, 0)


# -- normality and hulls -------------------------------------------------

def is_normal(lat: Lattice) -> bool:
    """Normal means L intersect b*host = b*L; equivalently all pivots have
    valuation zero."""
    return all(v == 0 for _, v in lat.pivots)


def normal_hull(lat: Lattice) -> Lattice:
    """Smallest normal sub-module containing the lattice.

    Dividing each basis vector by its pivot power b^(v_j) is exact (its
    entries have valuation >= v_j) and turns the pivots into units over
    the exact zeros at earlier pivots, so the quotients span a normal
    lattice of the same rank that contains this one: the hull.
    """
    if lat.rank == lat.host.rank:
        return full_lattice(lat.host)
    gens = [tuple(e.divide_bpow(v) for e in g)
            for g, (_, v) in zip(lat.basis, lat.pivots)]
    return lattice_reduce(gens, host=lat.host)


# -- sub-module structure and quotients ---------------------------------

class SubModule:
    """An a-stable lattice endowed with its own module structure."""

    __slots__ = ("lattice", "module")

    def __init__(self, lattice: Lattice, module: AbModule):
        self.lattice = lattice
        self.module = module

    def to_sub_coords(self, x) -> "ModuleElement | None":
        c = self.lattice.member_coords(x)
        if c is None:
            return None
        return self.module.element(c)


def sub_module_structure(lat: Lattice) -> SubModule:
    """Module structure on a lattice basis; requires a-stability."""
    if lat.is_zero():
        return SubModule(lat, AbModule([], prec=lat.host.prec))
    # the a-images' coordinates are the columns of the a-matrix
    return SubModule(lat, AbModule(zip(*_a_image_coords(lat))))


def _a_image_coords(lat: Lattice):
    """The coordinates of a g for each basis vector g; raises NotAStable
    when one of them leaves the lattice."""
    cols = []
    for g in lat.basis_elements():
        c = lat.member_coords(g.act_a())
        if c is None:
            raise NotAStable("lattice is not stable under the a-action")
        cols.append(c)
    return cols


class Quotient:
    """Quotient of a module by a normal a-stable lattice."""

    __slots__ = ("module", "lattice", "complement", "_host")

    def __init__(self, module, lattice, complement, host):
        self.module = module
        self.lattice = lattice
        self.complement = complement
        self._host = host

    def project(self, x: ModuleElement) -> ModuleElement:
        if x.host is not self._host:
            raise HostMismatch("element does not live in the quotient's host")
        return self.module.element(quot_project_raw(self, x))

    def lift(self, y: ModuleElement) -> ModuleElement:
        if y.host is not self.module:
            raise HostMismatch("element does not live in the quotient module")
        vec = [TruncSeries.zero(self._host.prec) for _ in range(self._host.rank)]
        for c, i in zip(y.coords, self.complement):
            vec[i] = c
        return ModuleElement(self._host, tuple(vec))

    def project_lattice(self, lat: Lattice) -> Lattice:
        return lattice_reduce([self.project(g) for g in lat.basis_elements()],
                              host=self.module)

    def preimage_lattice(self, lat: Lattice) -> Lattice:
        gens = [self.lift(g) for g in lat.basis_elements()]
        gens += self.lattice.basis_elements()
        return lattice_reduce(gens, host=self._host)


def quotient_module(host: AbModule, lat: Lattice) -> Quotient:
    """Quotient by a normal, a-stable lattice, with projection and section."""
    if lat.host is not host:
        raise HostMismatch("lattice does not live in the module")
    if not is_normal(lat):
        raise NotNormal("lattice has a pivot of positive valuation")
    _a_image_coords(lat)        # raises NotAStable unless a-stable
    pivot_cols = {p for p, _ in lat.pivots}
    complement = [i for i in range(host.rank) if i not in pivot_cols]
    quot = Quotient(None, lat, complement, host)
    # the projected a-images of the complement are its a-matrix's columns
    quot.module = AbModule(
        zip(*[quot_project_raw(quot, host.basis(i).act_a())
              for i in complement]), prec=host.prec)
    return quot


def quot_project_raw(quot: Quotient, x: ModuleElement):
    """The complement coordinates of x after eliminating the (normal)
    lattice's pivot coordinates."""
    _, residual = quot.lattice._eliminate(x.coords)
    return [residual[i] for i in quot.complement]


def kernel_of_series_map(rows, ncols, prec):
    """Kernel of a series matrix (list of row vectors) acting on R^ncols.

    Returns coordinate vectors spanning {w : M w = 0}: the tracks of the
    columns of M that reduce to zero, from the reduction that gives
    ``generator_coords``.
    """
    dim = len(rows)
    columns = [tuple(rows[i][j] for i in range(dim)) for j in range(ncols)]
    _, _, dropped = _reduce_vectors(_with_identity(columns, prec), dim, prec)
    return [tuple(vec[dim:]) for vec in dropped]
