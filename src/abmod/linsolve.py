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

``form_add`` and ``form_scale`` are the eliminator's row operations:
``reduce`` adds a multiple of each substitution it applies, and
``add_equation`` scales the reduced equation into the pivot's substitution
and adds multiples of it to the stored ones that hold the pivot.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def form_add(acc: dict, form: dict, c: Fraction | None = None) -> dict:
    """Add *form*, or ``c * form``, into *acc* in place and return *acc*."""
    if c is not None and not c:
        return acc
    for p, v in form.items():
        v = acc.get(p, _ZERO) + (v if c is None else c * v)
        if v:
            acc[p] = v
        else:
            acc.pop(p, None)
    return acc


def form_scale(a: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {p: v * c for p, v in a.items()}


class ParamSolver:
    def __init__(self):
        self._subs: dict[int, dict[int, Fraction]] = {}
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

    def reduce(self, form: dict) -> dict:
        """The form with every eliminated parameter substituted away.

        The result depends only on free parameters, so reducing it again
        returns an equal form until the next equation is added.
        """
        out = {}
        subs = self._subs
        for p, c in form.items():
            if not c:
                continue
            sub = subs.get(p)
            if sub is None:
                v = out.get(p)
                if v is None:
                    out[p] = c
                else:
                    v += c
                    if v:
                        out[p] = v
                    else:
                        del out[p]
            elif sub:     # most parameters are eliminated to zero
                form_add(out, sub, c)
        return out

    def add_equation(self, form: dict):
        """Impose form == 0."""
        form = self.reduce(form)
        if not form:
            return
        pivot = max(form)
        sub = form_scale(form, -1 / form.pop(pivot))
        self._subs[pivot] = sub
        holders = self._holders
        if sub:
            for q in sub:
                holders.setdefault(q, set()).add(pivot)
        else:
            self.zero.add(pivot)
        # keep every stored substitution independent of the pivot
        for h in holders.pop(pivot, ()):
            g = self._subs[h]
            form_add(g, sub, g.pop(pivot))
            for q in sub:
                if q in g:
                    holders[q].add(h)
                else:
                    holders[q].discard(h)
            if not g:
                self.zero.add(h)

    def live_params(self, forms) -> list:
        """Sorted free parameters that the reduced forms depend on."""
        seen = set()
        for f in forms:
            seen.update(self.reduce(f).keys())
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
