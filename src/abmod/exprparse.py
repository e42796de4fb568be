"""Tiny expression parser for polynomial literals in one variable.

Handles what session files need: rational literals (3, -1/2), a single
variable (b for series, z for system entries), +, -, *, ^ and parentheses.
Returns dense coefficient lists over Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from string import digits

from .errors import ParseError
from .ratpoly import padd, pmul, pnorm, pscale


def tokenize(text, line=None):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            num = int(text[i:j])
            # a '/' directly between integers is a rational literal
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1] in digits:
                j2 = j + 1
                while j2 < n and text[j2] in digits:
                    j2 += 1
                den = int(text[j + 1:j2])
                if den == 0:
                    raise ParseError("zero denominator", line, j + 2)
                tokens.append(("num", Fraction(num, den), i))
                i = j2
            else:
                tokens.append(("num", Fraction(num), i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^(),[]=":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, i + 1)
    tokens.append(("end", None, n))
    return tokens


class ExprParser:
    def __init__(self, tokens, var, line=None):
        self.tokens = tokens
        self.pos = 0
        self.var = var
        self.line = line

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}",
                             self.line, tok[2] + 1)
        self.pos += 1
        return tok

    def parse_expr(self):
        acc = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            acc = padd(acc, rhs if op == "+" else pscale(rhs, -1))
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            self.take()
            acc = pmul(acc, self.parse_factor())
        return acc

    def parse_factor(self):
        neg = False
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                neg = not neg
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            kind, value, col = self.take("num")
            if value.denominator != 1 or value < 0:
                raise ParseError("exponent must be a non-negative integer",
                                 self.line, col + 1)
            out = (Fraction(1),)
            for _ in range(int(value)):
                out = pmul(out, base)
            base = out
        return pscale(base, -1) if neg else base

    def parse_atom(self):
        kind, value, col = self.peek()
        if kind == "num":
            self.take()
            return (value,)
        if kind == "name":
            self.take()
            if value != self.var:
                raise ParseError(
                    f"unknown symbol {value!r} (expected {self.var!r})",
                    self.line, col + 1)
            return (Fraction(0), Fraction(1))
        if kind == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", self.line, col + 1)


def parse_poly(text, var="b", line=None):
    """Dense coefficient list of a polynomial expression in *var*."""
    parser = ExprParser(tokenize(text, line), var, line)
    poly = parser.parse_expr()
    parser.take("end")
    return pnorm(poly)
