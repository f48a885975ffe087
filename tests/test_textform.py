import random
import re
import sys
from fractions import Fraction

import pytest
import sympy

from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.textform import (
    ExpressionError,
    frac_text,
    parse_frac,
    poly_text,
    rf_text,
)
from tests_helpers import random_poly, random_rf, to_sympy

X11 = Polynomial.variable(1, 1)
X21 = Polynomial.variable(2, 1)
X22 = Polynomial.variable(2, 2)


def test_frac_text():
    assert frac_text(Fraction(7, 3)) == "7/3"
    assert frac_text(Fraction(-2)) == "-2"
    assert frac_text(Fraction(0)) == "0"
    assert parse_frac("7/3") == Fraction(7, 3)
    with pytest.raises(ExpressionError):
        parse_frac("x")


def test_parse_frac_refuses_an_exponent_past_the_digit_limit():
    """An exponent e is read while 10**|e| has at most the int digit limit
    of digits, of either sign, and refused past it before any power is
    built; with no limit set, every exponent is read."""
    assert parse_frac("1e3") == 1000 and parse_frac(" 2.5E-3 ") == Fraction(1, 400)
    assert parse_frac("1e1_0") == 10**10 and parse_frac("1e4000") == 10**4000
    limit = sys.get_int_max_str_digits()
    assert limit > 4000
    assert parse_frac(f"3e{limit - 1}") == 3 * 10 ** (limit - 1)
    assert parse_frac(f"-1e-{limit - 1}") == Fraction(-1, 10 ** (limit - 1))
    for text in (f"1e{limit}", f"1e-{limit}", "1e100000000", "-7.5E+100000000", "1e" + "9" * 5000):
        with pytest.raises(ExpressionError, match="bad rational literal"):
            parse_frac(text)
    sys.set_int_max_str_digits(0)
    try:
        assert parse_frac(f"1e{limit}") == 10**limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_poly_text_fixed():
    p = X11 * X11 - X21.scale(Fraction(1, 2)) + Polynomial.one()
    assert poly_text(p) == "x[1][1]^2 - 1/2*x[2][1] + 1"
    assert poly_text(Polynomial.zero()) == "0"
    assert poly_text(-X11) == "-x[1][1]"
    assert poly_text(X21 * X22) == "x[2][1]*x[2][2]"


def test_rf_text_fixed():
    f = RationalFunction(X11, X21 - X22)
    assert rf_text(f) == "(x[1][1])/(x[2][1] - x[2][2])"
    assert rf_text(RationalFunction.from_poly(X11)) == "x[1][1]"


def read_back(text):
    """The printed text as a sympy expression: x[k][i] is the symbol x_k_i."""
    return sympy.sympify(re.sub(r"x\[(\d+)\]\[(\d+)\]", r"x_\1_\2", text).replace("^", "**"))


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_poly(seed):
    rng = random.Random(3000 + seed)
    p = random_poly(rng, max_terms=5, max_deg=3)
    assert sympy.expand(read_back(poly_text(p))) == to_sympy(p)


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_rf(seed):
    rng = random.Random(4000 + seed)
    f = random_rf(rng)
    assert sympy.cancel(read_back(rf_text(f)) - to_sympy(f.num) / to_sympy(f.den)) == 0
