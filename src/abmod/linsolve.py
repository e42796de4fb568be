"""Incremental solver for homogeneous rational linear systems.

Unknowns are numbered parameters; linear forms are sparse dicts
{param: coefficient}.  Feeding an equation eliminates its highest-numbered
parameter in favour of the others, keeping all stored substitutions fully
reduced, so equations fed order by order let later consistency conditions
cut earlier degrees of freedom.  The stored substitutions are the unique
reduced row-echelon form of the span of the equations (pivot: the largest
parameter), whatever equivalent equations were fed.  Its users are in
``decomposition``, and all feed it through ``_feed_orders``, the one
elimination loop for equivariant maps, which creates every unknown up
front and then feeds the equations order by order:

* ``_solve_equivariance``, the parametric solution behind embeddings into
  expansion modules (``asymptotics``);
* ``_eigen_chain``, the eigen-element solutions (maps from E_lambda) of
  every shift lambda + m, read after each late order of one elimination;
* ``_vanishes_at_b0``, the zero-prefix check that finds the shift m.

Two indexes keep the work to the entries that can change:

* ``zero`` is the set of parameters eliminated to zero (substitution
  ``{}``).  It only grows: an empty substitution holds no parameter, so no
  later pivot touches it.  A caller may leave these parameters out of its
  equations, since the span of the equations does not change.
* ``_holders[q]`` is the set of eliminated parameters whose substitution
  holds the free parameter q, so a new pivot updates exactly the
  substitutions that hold it.

Elimination runs on integers.  The substitution of an eliminated
parameter p is kept as integer numerators ``_subs[p]`` (a dict over free
parameters) over one positive denominator ``_dens[p]``, in lowest terms:
gcd(den, numerators) = 1, so the stored form is canonical and every
rational it stands for is the one exact rational elimination gives.
``_integer_form`` reduces a form to integer numerators over the lcm of
its terms' denominators; ``reduce`` builds one ``Fraction`` per entry
from it, and ``add_equation`` and ``live_params`` use it as it is.

``form_add`` and ``form_scale`` are the eliminator's row operations, on
integer forms: ``_integer_form`` adds a multiple of each substitution it
applies, and ``add_equation`` scales each stored substitution that holds
the pivot by the pivot's denominator and adds a multiple of the pivot's
substitution to it.  They work unchanged on ``Fraction`` forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)


def form_add(acc: dict, form: dict, c: int | Fraction | None = None) -> dict:
    """Add *form*, or ``c * form``, into *acc* in place and return *acc*.

    Integer forms and coefficients give an integer form."""
    if c is not None and not c:
        return acc
    for p, v in form.items():
        v = acc.get(p, 0) + (v if c is None else c * v)
        if v:
            acc[p] = v
        else:
            acc.pop(p, None)
    return acc


def form_scale(a: dict, c: int | Fraction) -> dict:
    if not c:
        return {}
    return {p: v * c for p, v in a.items()}


def _lowest(form: dict, den: int):
    """(numerators, denominator) of the integer form *form* over *den* > 0,
    in lowest terms; an empty form gets denominator 1."""
    g = gcd(den, *form.values())
    if g == 1:
        return form, den
    return {q: v // g for q, v in form.items()}, den // g


class ParamSolver:
    def __init__(self):
        self._subs: dict[int, dict[int, int]] = {}
        self._dens: dict[int, int] = {}
        self._holders: dict[int, set[int]] = {}
        self._tags: dict[int, int] = {}
        self._count = 0
        self.zero: set[int] = set()

    def new_param(self, tag=0) -> int:
        p = self._count
        self._count += 1
        self._tags[p] = tag
        return p

    def tag(self, p: int) -> int:
        return self._tags[p]

    def _integer_form(self, form: dict):
        """(numerators, d): the reduced form of *form* (see :meth:`reduce`)
        is ``{q: numerators[q] / d}``.  d is the running lcm of the terms'
        denominators: c.denominator for a free parameter, and
        c.denominator times the substitution's denominator for an
        eliminated one.  Zero numerators are dropped; d is not reduced
        against the numerators."""
        subs, dens = self._subs, self._dens
        out = {}
        d = 1
        for p, c in form.items():
            if not c:
                continue
            sub = subs.get(p)
            if sub is None:
                cd = c.denominator
            elif sub:     # most parameters are eliminated to zero
                cd = c.denominator * dens[p]
            else:
                continue
            if d % cd:
                f = cd // gcd(d, cd)
                d *= f
                out = form_scale(out, f)
            s = c.numerator * (d // cd)
            if sub is None:
                v = out.get(p, 0) + s
                if v:
                    out[p] = v
                else:
                    del out[p]
            else:
                form_add(out, sub, s)
        return out, d

    def reduce(self, form: dict) -> dict:
        """The form with every eliminated parameter substituted away.

        The result depends only on free parameters, so reducing it again
        returns an equal form until the next equation is added.
        """
        nums, d = self._integer_form(form)
        return {q: Fraction(v, d) for q, v in nums.items()}

    def add_equation(self, form: dict):
        """Impose form == 0."""
        sub, _ = self._integer_form(form)
        if not sub:
            return
        pivot = max(sub)
        den = sub.pop(pivot)
        if den > 0:
            sub = form_scale(sub, -1)
        sub, den = _lowest(sub, abs(den))
        subs, dens, holders = self._subs, self._dens, self._holders
        subs[pivot], dens[pivot] = sub, den
        if sub:
            for q in sub:
                holders.setdefault(q, set()).add(pivot)
        else:
            self.zero.add(pivot)
        # keep every stored substitution independent of the pivot:
        # g / d_h with g[pivot] = c becomes (den * g + c * sub) / (d_h * den)
        for h in holders.pop(pivot, ()):
            g = subs[h]
            c = g.pop(pivot)
            g = form_add(form_scale(g, den), sub, c)
            for q in sub:
                if q in g:
                    holders[q].add(h)
                else:
                    holders[q].discard(h)
            subs[h], dens[h] = _lowest(g, dens[h] * den)
            if not g:
                self.zero.add(h)

    def live_params(self, forms) -> list:
        """Sorted free parameters that the reduced forms depend on."""
        seen = set()
        for f in forms:
            seen.update(self._integer_form(f)[0])
        return sorted(seen)

    def evaluate(self, form: dict, assignment: dict) -> Fraction:
        """Value of a *reduced* form (see :meth:`reduce`) when the free
        parameters take the values in *assignment* (0 where missing).

        The form is not reduced again: reduce each form once after the last
        equation, then evaluate it at as many assignments as needed.
        """
        acc = _ZERO
        for p, c in form.items():
            a = assignment.get(p)
            if a:
                acc += c * a
        return acc
