"""Deterministic text form for polynomials and rational functions.

Variables print as x[k][i], rationals as p/q, monomials with ^ powers and *
separators, terms in descending graded-lex order.  parse_rf() accepts the
full grammar (sums, products, quotients, powers, parentheses), so printing
followed by parsing is the identity on canonical forms.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Monomial, Polynomial, mono_pairs
from .ratfun import RationalFunction


def frac_text(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def mono_text(m: Monomial) -> str:
    parts = []
    for (k, i), e in mono_pairs(m):
        v = f"x[{k}][{i}]"
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def poly_text(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for m, c in p.sorted_items():
        c = Fraction(c, p.den)
        if not m:
            body = frac_text(abs(c))
        elif abs(c) == 1:
            body = mono_text(m)
        else:
            body = f"{frac_text(abs(c))}*{mono_text(m)}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def rf_text(f: RationalFunction) -> str:
    if f.is_polynomial():
        return poly_text(f.num)
    return f"({poly_text(f.num)})/({poly_text(f.den)})"


_TOKEN = re.compile(
    r"\s*(?:(?P<var>x\[(?P<k>\d+)\]\[(?P<i>\d+)\])|(?P<int>\d+)|(?P<op>[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Malformed expression text."""


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExpressionError(f"bad token at {text[pos:pos + 12]!r}")
            break
        if m.group("var"):
            tokens.append(("var", (int(m.group("k")), int(m.group("i")))))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}")

    def parse(self) -> RationalFunction:
        f = self.expr()
        if self.peek()[0] != "end":
            raise ExpressionError("trailing input")
        return f

    def expr(self) -> RationalFunction:
        f = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            g = self.term()
            f = f + g if op == "+" else f - g
        return f

    def term(self) -> RationalFunction:
        f = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            g = self.unary()
            f = f * g if op == "*" else f / g
        return f

    def unary(self) -> RationalFunction:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> RationalFunction:
        f = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            neg = False
            if self.peek() == ("op", "-"):
                self.take()
                neg = True
            kind, val = self.take()
            if kind != "int":
                raise ExpressionError("expected integer exponent")
            return f ** (-val if neg else val)
        return f

    def atom(self) -> RationalFunction:
        kind, val = self.take()
        if kind == "int":
            return RationalFunction.constant(val)
        if kind == "var":
            k, i = val
            return RationalFunction.variable(k, i)
        if kind == "op" and val == "(":
            f = self.expr()
            self.expect_op(")")
            return f
        raise ExpressionError(f"unexpected token {val!r}")


def parse_rf(text: str) -> RationalFunction:
    return _Parser(_tokenize(text)).parse()


def parse_poly(text: str) -> Polynomial:
    f = parse_rf(text)
    if not f.is_polynomial():
        raise ExpressionError("expression is not polynomial")
    return f.num


def parse_frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ExpressionError(f"rational literal must be a string, got {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ExpressionError(f"bad rational literal {text!r}") from exc
