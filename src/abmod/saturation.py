"""Saturation by b^(-1)a and Bernstein polynomials.

The saturation chain L_0 = E, L_{m+1} = L_m + b^(-1) a L_m is carried in
scaled coordinates: M_m := b^m L_m is a genuine lattice inside E and obeys

    M_{m+1} = b M_m + (a - m b) M_m,

so the whole computation happens in E.  The chain has stabilized exactly
when (a - m b) maps the basis of M_m into b M_m, i.e. when every basis
image has pivot coordinates of valuation >= 1; the coordinate solutions
are then the a-matrix of the saturated module in the rescaled basis, and
they have a simple pole by construction.  At m = 0 that test is the
simple-pole condition itself, so a simple-pole module (every module of
rank 0 included) is returned as its own saturation, without the chain.
Since E c E# c E[b^-1], every M_m has the rank of E; a step whose
reduction comes back smaller lost generators to vanished coefficients and
raises PrecisionExhausted.
"""

from __future__ import annotations

from .errors import HostMismatch, NotGeometric, NotRegular, PrecisionExhausted
from .lattices import Lattice, full_lattice, lattice_reduce
from .modules import AbModule, ModuleElement, derived, smat_vec
from .ratpoly import RationalPolynomial
from .series import rat_str


class SaturationResult:
    """Saturated module, inclusion data and the number of b^(-1)a steps."""

    __slots__ = ("module", "inclusion", "steps", "source")

    def __init__(self, module, inclusion, steps, source):
        self.module = module          # the saturated module E#
        self.inclusion = inclusion    # k x k series matrix, column j = coords of e_j
        self.steps = steps            # saturation index m
        self.source = source

    def include(self, x: ModuleElement) -> ModuleElement:
        """Image of an element of E inside E#."""
        if x.host is not self.source:
            raise HostMismatch(
                "element does not live in the saturation's source")
        return self.module.element(
            smat_vec(self.inclusion, x.coords, self.module.prec))


def _shifted_basis_images(lat: Lattice, m: int):
    """(a - m b) applied to each basis element: one fused row sum per
    coordinate (``ModuleElement.act_a(m)``), with no series built for the
    twist, for b g or for the image under a."""
    return [g.act_a(m) for g in lat.basis_elements()]


def saturate(module: AbModule, max_iter=None) -> SaturationResult:
    """Smallest simple-pole module containing the input, with inclusion.

    The result is kept on the module.  A later call with a *max_iter*
    below its step count runs again, so it raises as a run under that cap.
    A negative *max_iter* is rejected with ValueError.
    """
    if max_iter is not None and max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    known = module.memo.get("saturate")
    if known is not None and (max_iter is None or known.steps <= max_iter):
        return known
    if all(e.valuation_lower_bound() >= 1 for row in module.a_matrix
           for e in row):
        # the chain would stop at m = 0 with the a-matrix columns as the
        # coordinates and the identity as the inclusion: E# is E itself
        module.memo["saturate"] = SaturationResult(
            module, tuple(e.coords for e in module.basis_elements()), 0,
            module)
        return module.memo["saturate"]
    if max_iter is not None:
        cap, cap_why = max_iter, "configured cap"
    else:
        cap, cap_why = module.rank * module.prec, "default cap rank * prec"
    lat = full_lattice(module)
    m = 0
    while True:
        images = _shifted_basis_images(lat, m)
        coords = []
        stable = True
        for img in images:
            c = lat.member_coords(img)
            if c is None or any(s.valuation_lower_bound() < 1 for s in c):
                stable = False
                break
            coords.append(c)
        if stable:
            break
        if m >= cap:
            raise NotRegular(
                f"saturation did not stabilize within {cap} steps "
                f"({cap_why}); the module is not detectably regular")
        nxt = lattice_reduce(
            [g.act_b() for g in lat.basis_elements()] + images,
            host=module)
        if nxt.rank < module.rank:
            # E c E# c E[b^-1] forces equal ranks: generators were dropped
            # because their known coefficients vanished
            raise PrecisionExhausted(
                f"saturation step {m + 1} has rank {nxt.rank} < module rank "
                f"{module.rank}: its generators vanish at precision "
                f"{module.prec}")
        if nxt.eq(lat):
            raise NotRegular(
                f"saturation chain is self-similar at step {m}: "
                "each step strictly enlarges the module, so the chain never "
                "stabilizes")
        lat = nxt
        m += 1

    r = lat.rank
    mat = [[coords[j][i] for j in range(r)] for i in range(r)]
    sat = AbModule(mat)
    # inclusion: coordinates of b^m e_j in the scaled basis
    incl_cols = []
    for j in range(module.rank):
        e = module.basis(j)
        for _ in range(m):
            e = e.act_b()
        c = lat.member_coords(e)
        if c is None:
            raise PrecisionExhausted("could not express the inclusion at precision")
        incl_cols.append(c)
    inclusion = tuple(tuple(incl_cols[j][i] for j in range(module.rank))
                      for i in range(r))
    module.memo["saturate"] = SaturationResult(sat, inclusion, m, module)
    return module.memo["saturate"]


@derived
def bernstein_polynomial(module: AbModule, mode="minimal") -> RationalPolynomial:
    """Minimal (default) or characteristic polynomial of -b^(-1)a on E#/bE#.
    It is computed once, on E#, which is its own saturation (its a-matrix
    has valuation >= 1); any other module returns the object of its E#."""
    sat = saturate(module).module
    if sat is not module:
        return bernstein_polynomial(sat, mode)
    neg = tuple(tuple(-c for c in row) for row in module.residue())
    return RationalPolynomial.from_matrix(neg, mode=mode)


def is_geometric(module: AbModule):
    """All Bernstein roots rational and negative; returns (bool, certificate)."""
    poly = bernstein_polynomial(module, mode="minimal")
    if not poly.is_split():
        return False, {
            "reason": "unsplit factor without rational roots",
            "unsplit": poly.unsplit,
            "roots": poly.roots,
        }
    bad = [v for v, _ in poly.roots if v >= 0]
    if bad:
        return False, {
            "reason": "non-negative roots " + ", ".join(rat_str(v) for v in bad),
            "roots": poly.roots,
        }
    return True, {"roots": poly.roots}


def require_geometric(module: AbModule):
    ok, cert = is_geometric(module)
    if not ok:
        raise NotGeometric(cert["reason"])
    return cert
