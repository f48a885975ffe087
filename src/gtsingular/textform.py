"""Deterministic text form for polynomials and rational functions.

Variables print as x[k][i], rationals as p/q, monomials with ^ powers and *
separators, terms in descending graded-lex order.  The one parse is
parse_frac(), which reads the rational coordinates of a point file.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .poly import Monomial, Polynomial, mono_pairs
from .ratfun import RationalFunction


def frac_text(q: Fraction) -> str:
    """p/q, or p for an integer.  ValueError, naming the environment
    variable that raises it, past Python's int digit limit."""
    q = Fraction(q)
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise ValueError(
            f"a result has more than {sys.get_int_max_str_digits()} digits; "
            "set PYTHONINTMAXSTRDIGITS to a larger limit to print it"
        ) from exc


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


class ExpressionError(ValueError):
    """Malformed rational literal text."""


# the exponent of a decimal literal, as `Fraction` reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_frac(text: str) -> Fraction:
    """The rational of a literal `Fraction` reads.  A literal whose power
    10**|e| of its exponent e would have more digits than Python's int
    digit limit (`sys.get_int_max_str_digits()`, when set) is refused
    before `Fraction` builds that power, which for the 14 characters
    "1e100000000" runs for over a minute."""
    if not isinstance(text, str):
        raise ExpressionError(f"rational literal must be a string, got {text!r}")
    m = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    try:
        if m and limit and abs(int(m.group(1))) >= limit:
            raise ValueError("exponent past the int digit limit")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ExpressionError(f"bad rational literal {text!r}") from exc
