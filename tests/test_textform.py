import random
import re
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
