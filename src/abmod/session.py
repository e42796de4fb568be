"""Line-oriented session language: define objects, run operations, report.

Grammar (one statement per line, # starts a comment):

    precision N
    let NAME = fresco [(3/2, 1), (1/2, 1+b)]
    let NAME = xi 1/2 1 [dim]
    let NAME = module [[b, 0], [1+b, 2*b]]
    let NAME = system [[1/2 + z]]
    show bernstein|saturate|filtration|higher_bernstein|embed|expansion|report NAME

Execution is strictly sequential and reports are deterministic for a fixed
input and flag set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .asymptotics import (DiffSystem, embed_into_xi, from_differential_system,
                          realize_expansion, singular_term_report)
from .decomposition import higher_bernstein, semisimple_filtration
from .errors import (AbmodError, DuplicateName, ParseError, UnknownName)
from .exprparse import parse_poly
from .frescos import FrescoPresentation, fresco_from_presentation
from .modules import AbModule, build_xi_tensor, module_from_matrix
from .saturation import bernstein_polynomial, saturate
from .series import DEFAULT_PREC, TruncSeries, rat_str

@dataclass
class LetCommand:
    line: int
    name: str
    kind: str        # fresco | xi | module | system
    payload: object
    precision: int

    def render(self) -> str:
        return f"let {self.name} = {self.kind} {_render_payload(self)}"


@dataclass
class ShowCommand:
    line: int
    action: str
    name: str

    def render(self) -> str:
        return f"show {self.action} {self.name}"


@dataclass
class PrecisionCommand:
    line: int
    value: int

    def render(self) -> str:
        return f"precision {self.value}"


@dataclass
class Session:
    commands: list

    def render(self) -> str:
        return "\n".join(c.render() for c in self.commands) + "\n"


def _render_payload(cmd: LetCommand) -> str:
    if cmd.kind == "fresco":
        parts = []
        for lam, unit in cmd.payload:
            parts.append(f"({rat_str(lam)}, {_poly_str(unit, 'b')})")
        return "[" + ", ".join(parts) + "]"
    if cmd.kind == "xi":
        alpha, depth, dim = cmd.payload
        tail = f" {dim}" if dim != 1 else ""
        return f"{rat_str(alpha)} {depth}{tail}"
    var = "b" if cmd.kind == "module" else "z"
    rows = []
    for row in cmd.payload:
        rows.append("[" + ", ".join(_poly_str(p, var) for p in row) + "]")
    return "[" + ", ".join(rows) + "]"


def _poly_str(coeffs, var) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if not c and len(coeffs) > 1:
            continue
        if i == 0:
            parts.append(rat_str(c))
        else:
            pw = var if i == 1 else f"{var}^{i}"
            if c == 1:
                parts.append(pw)
            elif c == -1:
                parts.append(f"-{pw}")
            else:
                parts.append(f"{rat_str(c)}*{pw}")
    out = " + ".join(parts) if parts else "0"
    return out.replace("+ -", "- ")


# -- parsing --------------------------------------------------------------

def _split_bracket_list(text, line):
    """Split the inside of a [...] at top-level commas."""
    items = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line)
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or items:
        items.append("".join(cur))
    if depth != 0:
        raise ParseError("unbalanced brackets", line)
    return [s.strip() for s in items]


def _strip_outer(text, open_ch, close_ch, line):
    text = text.strip()
    if not (text.startswith(open_ch) and text.endswith(close_ch)):
        raise ParseError(f"expected {open_ch}...{close_ch}", line)
    return text[1:-1]


def _parse_fresco_payload(text, line):
    body = _strip_outer(text, "[", "]", line)
    factors = []
    for item in _split_bracket_list(body, line):
        if not item:
            raise ParseError("empty factor in fresco list", line)
        pieces = [item]
        if item.startswith("("):
            inner = _strip_outer(item, "(", ")", line)
            pieces = _split_bracket_list(inner, line)
            if len(pieces) not in (1, 2):
                raise ParseError("fresco factor needs (lambda) or (lambda, unit)",
                                 line)
        lam = _parse_rational(pieces[0], line)
        unit = (parse_poly(pieces[1], "b", line) if len(pieces) == 2
                else (Fraction(1),))
        factors.append((lam, unit))
    if not factors:
        raise ParseError("fresco needs at least one factor", line)
    return factors


def _parse_rational(text, line):
    poly = parse_poly(text, "b", line)
    if len(poly) > 1:
        raise ParseError("expected a rational constant", line)
    return poly[0]


def _parse_matrix_payload(text, var, line):
    body = _strip_outer(text, "[", "]", line)
    rows = []
    for item in _split_bracket_list(body, line):
        row_body = _strip_outer(item, "[", "]", line)
        rows.append([parse_poly(p, var, line)
                     for p in _split_bracket_list(row_body, line)])
    width = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != width:
            raise ParseError("matrix rows have unequal lengths", line)
    return rows


def _natural(word):
    """The value of a word of ASCII digits, else None."""
    return int(word) if word.isascii() and word.isdigit() else None


def parse_session(text: str, precision: int | None = None) -> Session:
    """The commands of *text*.  A *precision* (>= 2) acts as a ``precision``
    statement before the first line, which the session reports as its
    first command (line 0); the lines of *text* keep their numbers."""
    commands = []
    names = set()
    if precision is None:
        precision = DEFAULT_PREC
    else:
        commands.append(PrecisionCommand(0, precision))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "precision":
            precision = _natural(words[1]) if len(words) == 2 else None
            if precision is None or precision < 2:
                raise ParseError("usage: precision N (N >= 2)", lineno)
            commands.append(PrecisionCommand(lineno, precision))
            continue
        if head == "let":
            rest = line[len("let"):].strip()
            if "=" not in rest:
                raise ParseError("usage: let NAME = kind ...", lineno)
            name, rhs = rest.split("=", 1)
            name = name.strip()
            if not name.isidentifier():
                raise ParseError(f"bad name {name!r}", lineno)
            if name in names:
                raise DuplicateName(f"name {name!r} already bound (line {lineno})")
            rhs = rhs.strip()
            kind = rhs.split(None, 1)[0] if rhs else ""
            body = rhs[len(kind):].strip()
            if kind == "fresco":
                payload = _parse_fresco_payload(body, lineno)
            elif kind == "xi":
                parts = body.split()
                if len(parts) not in (2, 3):
                    raise ParseError("usage: xi ALPHA DEPTH [DIM]", lineno)
                alpha = _parse_rational(parts[0], lineno)
                depth = _natural(parts[1])
                if depth is None:
                    raise ParseError("xi depth must be a non-negative integer",
                                     lineno)
                dim = _natural(parts[2]) if len(parts) == 3 else 1
                if dim is None or dim < 1:
                    raise ParseError("xi dimension must be >= 1", lineno)
                payload = (alpha, depth, dim)
            elif kind == "module":
                payload = _parse_matrix_payload(body, "b", lineno)
            elif kind == "system":
                payload = _parse_matrix_payload(body, "z", lineno)
            else:
                raise ParseError(f"unknown binding kind {kind!r}", lineno)
            names.add(name)
            commands.append(LetCommand(lineno, name, kind, payload, precision))
            continue
        if head == "show":
            if len(words) != 3:
                raise ParseError("usage: show ACTION NAME", lineno)
            action, name = words[1], words[2]
            if action not in SHOW_COMMANDS:
                raise ParseError(
                    f"unknown action {action!r}; expected one of "
                    + ", ".join(SHOW_COMMANDS), lineno)
            if name not in names:
                raise UnknownName(f"name {name!r} is not defined (line {lineno})")
            commands.append(ShowCommand(lineno, action, name))
            continue
        raise ParseError(f"unknown statement {head!r}", lineno)
    return Session(commands)


# -- execution ------------------------------------------------------------

@dataclass
class Binding:
    kind: str
    module: AbModule
    fresco: object = None


@dataclass
class Report:
    entries: list = field(default_factory=list)
    failed: bool = False

    def to_text(self) -> str:
        lines = []
        for entry in self.entries:
            lines.append("> " + entry["command"])
            if "error" in entry:
                lines.append(f"  error [{entry['error']['type']}]: "
                             + entry["error"]["message"])
            else:
                for ln in entry["text"]:
                    lines.append("  " + ln)
            for d in entry.get("diagnostics", []):
                lines.append("  diagnostic: " + d)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"entries": self.entries, "failed": self.failed},
                          indent=2, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, Fraction):
        return rat_str(obj)
    raise TypeError(f"not serializable: {obj!r}")


def run_session(session: Session, max_sat_iter=None, check=False) -> Report:
    report = Report()
    env: dict[str, Binding] = {}
    for cmd in session.commands:
        entry = {"command": cmd.render()}
        diagnostics = []
        try:
            if isinstance(cmd, PrecisionCommand):
                entry["text"] = [f"precision set to {cmd.value}"]
                entry["result"] = {"precision": cmd.value}
            elif isinstance(cmd, LetCommand):
                env[cmd.name] = _bind(cmd)
                b = env[cmd.name]
                entry["text"] = [f"{cmd.name}: {cmd.kind} of rank "
                                 f"{b.module.rank} at precision {b.module.prec}"]
                entry["result"] = {"name": cmd.name, "kind": cmd.kind,
                                   "rank": b.module.rank,
                                   "prec": b.module.prec}
            elif isinstance(cmd, ShowCommand):
                binding = env.get(cmd.name)
                if binding is None:
                    raise UnknownName(
                        f"name {cmd.name!r} has no value: its let failed")
                result, text, diagnostics = _show(
                    cmd.action, binding, max_sat_iter=max_sat_iter)
                entry["result"] = result
                entry["text"] = text
                if diagnostics:
                    entry["diagnostics"] = diagnostics
        except AbmodError as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            report.failed = True
        report.entries.append(entry)
        if diagnostics and check:
            report.failed = True
    return report


def _bind(cmd: LetCommand) -> Binding:
    prec = cmd.precision
    if cmd.kind == "fresco":
        units = [(lam, TruncSeries(unit, prec)) for lam, unit in cmd.payload]
        pres = FrescoPresentation(units, prec)
        fr = fresco_from_presentation(pres, prec)
        return Binding("fresco", fr.module, fr)
    if cmd.kind == "xi":
        alpha, depth, dim = cmd.payload
        return Binding("xi", build_xi_tensor([alpha], depth, dim, prec))
    if cmd.kind == "module":
        mat = [[TruncSeries(p, prec) for p in row] for row in cmd.payload]
        return Binding("module", module_from_matrix(mat, prec))
    if cmd.kind == "system":
        sys_ = DiffSystem(tuple(tuple(tuple(p) for p in row)
                                for row in cmd.payload))
        return Binding("system", from_differential_system(sys_, prec))
    raise AbmodError(f"unknown binding kind {cmd.kind}")


def _show(action, binding: Binding, max_sat_iter=None):
    """(result, text, diagnostics) of one ``show`` command."""
    # every handler works from this capped saturation, kept on the module
    saturate(binding.module, max_iter=max_sat_iter)
    return _SHOW[action](binding)


def _show_bernstein(binding):
    mode = "characteristic" if binding.kind == "fresco" else "minimal"
    poly = bernstein_polynomial(binding.module, mode=mode)
    return ({"mode": mode, "polynomial": poly.to_json()},
            [f"bernstein ({mode}): {poly.render()}"], [])


def _show_saturate(binding):
    sat = saturate(binding.module)
    text = [f"saturation reached in {sat.steps} step(s); rank "
            f"{sat.module.rank}",
            "a-matrix: " + sat.module.render()]
    return {"steps": sat.steps, "module": sat.module.to_json()}, text, []


def _show_filtration(binding):
    filt = semisimple_filtration(binding.module)
    text = [f"nilpotent order {filt.nilpotent_order}; "
            "step ranks " + ", ".join(str(s.rank) for s in filt.steps)]
    return filt.to_json(), text, list(filt.diagnostics)


def _show_higher_bernstein(binding):
    hb = higher_bernstein(binding.module)
    text = []
    for c in hb.classes:
        lv = "; ".join(f"B_{j} = {p.render()} (delta={d})"
                       for j, d, p in c.levels)
        text.append(f"class {rat_str(c.alpha)}: nilpotent order "
                    f"{c.nilpotent_order}; {lv}")
    text.append(f"product check: {hb.product_check}; roots simple: "
                f"{hb.roots_simple}; degrees non-increasing: "
                f"{hb.degrees_non_increasing}")
    return hb.to_json(), text, list(hb.diagnostics)


def _show_embed(binding):
    emb = embed_into_xi(binding.module)
    classes = [rat_str(a) for a in emb.classes]
    matrix = [[e.render() for e in row] for row in emb.matrix]
    text = ["embedded into xi with classes " + (", ".join(classes) or "none")
            + f"; depth {emb.depth}; dim V {emb.dim_v}",
            "matrix: [" + ", ".join("[" + ", ".join(row) + "]"
                                    for row in matrix) + "]"]
    return ({"classes": classes, "depth": emb.depth, "dim_v": emb.dim_v,
             "matrix": matrix}, text, [])


def _show_expansion(binding):
    module = binding.module
    if binding.kind == "fresco":
        elems = [("generator", binding.fresco.generator)]
    else:
        elems = [(f"e{j}", module.basis(j)) for j in range(module.rank)]
    if binding.kind != "xi":
        emb = embed_into_xi(binding.module)
        elems = [(label, emb.apply(el)) for label, el in elems]
    realized = [realize_expansion(el, 8) for _, el in elems]
    text = [f"{label}: " + (" + ".join(t.render() for t in ts) or "0")
            for (label, _), ts in zip(elems, realized)]
    terms = [[t.to_json() for t in ts] for ts in realized]
    if binding.kind == "xi":
        return {"basis_expansions": terms}, text, []
    return {"expansions": [{"element": label, "terms": ts}
                           for (label, _), ts in zip(elems, terms)]}, text, []


def _show_report(binding):
    rep = singular_term_report(binding.module)
    text = []
    for c in rep.classes:
        text.append(f"class {rat_str(c.alpha)}: nilpotent order "
                    f"{c.nilpotent_order}; top roots "
                    + (", ".join(rat_str(r) for r in c.top_roots) or "none"))
        for e, m, lp in c.terms:
            log_part = (f"(log|s|^2)^{lp}" if lp > 1 else
                        "log|s|^2" if lp == 1 else "no logarithm")
            text.append(f"  predicted term |s|^({rat_str(e)}) * s^{m} * "
                        f"{log_part}")
    return rep.to_json(), text, list(rep.diagnostics)


_SHOW = {
    "bernstein": _show_bernstein,
    "saturate": _show_saturate,
    "filtration": _show_filtration,
    "higher_bernstein": _show_higher_bernstein,
    "embed": _show_embed,
    "expansion": _show_expansion,
    "report": _show_report,
}
SHOW_COMMANDS = tuple(_SHOW)
