"""Spans and counters around the calls into abmod's layers.

The wrappers live here, not in the program.  `Tracer.install` rebinds each
target in every loaded ``abmod`` module that holds it -- a name imported
with ``from .x import y`` is one more binding of the same object, so
``saturate`` is patched in ``saturation``, ``asymptotics``,
``decomposition``, ``session`` and the package itself -- and on the class
that defines a method.  `Tracer.uninstall` puts the originals back.

Spans (name, start, end, parent) are kept in memory in flat arrays while
recording is on and written out by `Tracer.write_spans`.  Per-name call
counts, self times (span duration minus the time its child spans cover),
inclusive times of outermost spans, and what the observers below count
are aggregated for every call.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict

from abmod import (asymptotics, decomposition, frescos, lattices, linsolve,
                   operators, ratpoly, saturation, series, session)

# (span name, owner, attribute); an owner that is a class is patched in place,
# a function is patched in every abmod module that binds it.
TARGETS = (
    ("series.mul_sharp", series.TruncSeries, "mul_sharp"),
    ("series.invert", series.TruncSeries, "invert"),
    ("lattices.reduce_vectors", lattices, "_reduce_vectors"),
    ("asymptotics.series_matrix_rank", asymptotics, "_series_matrix_rank"),
    ("asymptotics.solve_equivariance", asymptotics, "_solve_equivariance"),
    ("asymptotics.embed_into_xi", asymptotics, "embed_into_xi"),
    ("saturation.saturate", saturation, "saturate"),
    ("saturation.bernstein_polynomial", saturation, "bernstein_polynomial"),
    ("decomposition.semisimple_part", decomposition, "semisimple_part"),
    ("decomposition.eigen_elements", decomposition, "eigen_elements"),
    ("decomposition.primitive_split", decomposition, "primitive_split"),
    ("linsolve.form_add", linsolve, "form_add"),
    ("linsolve.form_scale", linsolve, "form_scale"),
    ("linsolve.add_equation", linsolve.ParamSolver, "add_equation"),
    ("linsolve.evaluate", linsolve.ParamSolver, "evaluate"),
    ("linsolve.live_params", linsolve.ParamSolver, "live_params"),
    ("session.parse_session", session, "parse_session"),
    ("session.bind", session, "_bind"),
    ("frescos.fresco_from_presentation", frescos, "fresco_from_presentation"),
    ("operators.mul", operators.AbOperator, "__mul__"),
    ("ratpoly.from_matrix", ratpoly.RationalPolynomial, "from_matrix"),
)


def _nonzero_positions(coeffs, limit):
    return [i for i, c in enumerate(coeffs[:limit]) if c]


def _den_bits(*seqs):
    return max((c.denominator.bit_length() for s in seqs for c in s),
               default=0)


def _series_product(tracer, args, result):
    """Nonzero coefficient products and denominator size of one mul_sharp."""
    a, b = args[0], args[1]
    p = result.prec
    nb = _nonzero_positions(b.coeffs, p)
    tracer.counts["series.coef_products"] += sum(
        bisect_left(nb, p - i) for i in _nonzero_positions(a.coeffs, p))
    tracer.raise_max("series.max_den_bits",
                     _den_bits(a.coeffs, b.coeffs, result.coeffs))


def _series_invert(tracer, args, result):
    tracer.raise_max("series.max_den_bits",
                     _den_bits(args[0].coeffs, result.coeffs))


def _reduce(tracer, args, result):
    tracer.counts["lattices.vectors_in"] += len(args[0])


def _rank(tracer, args, result):
    tracer.counts["asymptotics.full_rank"] += result >= len(args[0][0])


def _saturate(tracer, args, result):
    module = args[0]
    tracer.saturate_inputs.add(
        (tuple(e.coeffs for row in module.a_matrix for e in row),
         module.prec))
    tracer.counts["saturation.steps"] += result.steps


OBSERVERS = {
    "series.mul_sharp": _series_product,
    "series.invert": _series_invert,
    "lattices.reduce_vectors": _reduce,
    "asymptotics.series_matrix_rank": _rank,
    "saturation.saturate": _saturate,
}


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.recording = False
        self._stack = []          # [span index or -1, start, child time]
        self._depth = Counter()   # open spans per name, for inclusive time
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self.saturate_inputs = set()
        self._saved = []

    # -- aggregation ----------------------------------------------------

    def snapshot(self):
        """Copy of the aggregates, for per-pass differences."""
        return {"calls": Counter(self.calls), "self_s": dict(self.self_s),
                "inclusive_s": dict(self.inclusive_s),
                "counts": Counter(self.counts)}

    def reset_pass(self):
        """Start a pass: maxima and distinct inputs are per pass."""
        self.maxima.clear()
        self.saturate_inputs.clear()

    def raise_max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        span_id = self._ids[name]
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = -1
            if self.recording:
                idx = len(self.span_start)
                self.span_name.append(span_id)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_end.append(0.0)
            depth[name] += 1
            frame = [idx, clock(), 0.0]
            if idx >= 0:
                self.span_start.append(frame[1])
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                if idx >= 0:
                    self.span_end[idx] = end
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if not depth[name]:
                    self.inclusive_s[name] += dur
                if stack:
                    stack[-1][2] += dur
            if observe is not None:
                t_obs = clock()
                observe(self, args, result)
                if stack:     # keep the observer out of the caller's self time
                    stack[-1][2] += clock() - t_obs
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "abmod" or n.startswith("abmod.")]
        for name, owner, attr in TARGETS:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write_spans(self, path):
        """Write the recorded spans as gzipped columns; times in seconds
        from the first recorded span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        doc = {"names": self.names,
               "name": self.span_name.tolist(),
               "start": [round(t - t0, 7) for t in self.span_start],
               "end": [round(t - t0, 7) for t in self.span_end],
               "parent": self.span_parent.tolist()}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# Wrappers a workload is expected not to reach; any other wrapper that
# records no call on a workload means a binding was missed.  ``sessions``
# reaches them all, so every wrapper is proven live on some workload.
IDLE = {
    "sessions": set(),
    "embed_search": {"decomposition.primitive_split"},
    "deep_precision": {"asymptotics.embed_into_xi",
                       "asymptotics.series_matrix_rank",
                       "asymptotics.solve_equivariance"},
}


def layer_metrics(calls, self_s, incl, counts, maxima, distinct):
    """Per-layer metrics of one pass: name -> (value, unit)."""
    ranks = calls["asymptotics.series_matrix_rank"]
    sats = calls["saturation.saturate"]
    return {
        "series.mul_sharp_calls": (calls["series.mul_sharp"], "count"),
        "series.mul_sharp_self_s": (self_s["series.mul_sharp"], "s"),
        "series.invert_self_s": (self_s["series.invert"], "s"),
        "series.coef_products": (counts["series.coef_products"], "count"),
        "series.max_den_bits": (maxima["series.max_den_bits"], "bits"),
        "lattices.reduce_calls": (calls["lattices.reduce_vectors"], "count"),
        "lattices.reduce_self_s": (self_s["lattices.reduce_vectors"], "s"),
        "lattices.vectors_in": (counts["lattices.vectors_in"], "count"),
        "asymptotics.rank_checks": (ranks, "count"),
        "asymptotics.rank_hit_ratio": (
            counts["asymptotics.full_rank"] / ranks if ranks else 0.0,
            "ratio"),
        "asymptotics.equivariance_solve_s": (
            incl["asymptotics.solve_equivariance"], "s"),
        "asymptotics.embed_s": (incl["asymptotics.embed_into_xi"], "s"),
        "saturation.saturate_calls": (sats, "count"),
        "saturation.distinct_inputs": (distinct, "count"),
        "saturation.reuse_ratio": (distinct / sats if sats else 0.0, "ratio"),
        "saturation.steps": (counts["saturation.steps"], "count"),
        "saturation.bernstein_calls": (
            calls["saturation.bernstein_polynomial"], "count"),
        "decomposition.semisimple_calls": (
            calls["decomposition.semisimple_part"], "count"),
        "decomposition.eigen_calls": (
            calls["decomposition.eigen_elements"], "count"),
        "decomposition.eigen_self_s": (
            self_s["decomposition.eigen_elements"], "s"),
        "decomposition.primitive_split_s": (
            incl["decomposition.primitive_split"], "s"),
        "linsolve.equations": (calls["linsolve.add_equation"], "count"),
        "linsolve.evaluate_calls": (calls["linsolve.evaluate"], "count"),
        "linsolve.self_s": (sum(v for k, v in self_s.items()
                                if k.startswith("linsolve.")), "s"),
        "session.parse_s": (incl["session.parse_session"], "s"),
        "session.bind_s": (incl["session.bind"], "s"),
        "frescos.build_s": (incl["frescos.fresco_from_presentation"], "s"),
        "operators.mul_calls": (calls["operators.mul"], "count"),
        "ratpoly.from_matrix_s": (incl["ratpoly.from_matrix"], "s"),
    }


def _diff(after, before):
    out = {}
    for key in ("calls", "self_s", "inclusive_s", "counts"):
        a, b = after[key], before[key]
        out[key] = defaultdict(int, {k: a[k] - b.get(k, 0) for k in a})
    return out


def traced_passes(run_pass, seconds, workload, spans_path):
    """Run passes with the wrappers installed for *seconds* (at least one
    pass); spans are recorded during the first.  Returns the per-layer
    metrics of each pass and each pass's (start, end) wall interval."""
    tracer = Tracer()
    per_pass, intervals = [], []
    tracer.install()
    try:
        deadline = time.perf_counter() + seconds
        while not intervals or time.perf_counter() < deadline:
            tracer.recording = not intervals
            tracer.reset_pass()
            before = tracer.snapshot()
            intervals.append(run_pass()[0])
            d = _diff(tracer.snapshot(), before)
            per_pass.append(layer_metrics(
                d["calls"], d["self_s"], d["inclusive_s"], d["counts"],
                tracer.maxima, len(tracer.saturate_inputs)))
    finally:
        tracer.uninstall()
    missed = set(tracer.names) - set(tracer.calls) - IDLE[workload]
    if missed:
        raise RuntimeError("wrappers recorded no call: "
                           + ", ".join(sorted(missed)))
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return per_pass, intervals
