import random
from fractions import Fraction

import pytest

from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.textform import (
    ExpressionError,
    frac_text,
    parse_frac,
    parse_poly,
    parse_rf,
    poly_text,
    rf_text,
)
from tests_helpers import random_poly, random_rf

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


def test_parse_simple():
    assert parse_poly("x[1][1]^2 - 1/2*x[2][1] + 1") == (
        X11 * X11 - X21.scale(Fraction(1, 2)) + Polynomial.one()
    )
    f = parse_rf("(x[1][1] + 2)/(x[2][1] - x[2][2])")
    assert f == RationalFunction(X11 + Polynomial.constant(2), X21 - X22)
    assert parse_rf("-3/4").constant_value() == Fraction(-3, 4)
    assert parse_rf("2*(x[1][1] - 1)^2").num == (X11 - Polynomial.one()) ** 2 * Polynomial.constant(2)
    assert parse_rf("x[2][1]^-1") == RationalFunction(Polynomial.one(), X21)


def test_parse_errors():
    for bad in ["x[1]", "1 +", "(x[1][1]", "x[1][1] @ 2", "^2", "x[1][1]^x[1][1]"]:
        with pytest.raises(ExpressionError):
            parse_rf(bad)


def test_parse_trailing_input_and_whitespace():
    """A complete expression followed by more tokens is an error; trailing
    whitespace alone ends the token stream."""
    with pytest.raises(ExpressionError, match="trailing input"):
        parse_rf("x[1][1] )")
    with pytest.raises(ExpressionError, match="trailing input"):
        parse_rf("x[1][1] x[2][1]")
    assert parse_rf("x[1][1] + 1  \n") == parse_rf("x[1][1] + 1")


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_poly(seed):
    rng = random.Random(3000 + seed)
    p = random_poly(rng, max_terms=5, max_deg=3)
    assert parse_poly(poly_text(p)) == p


@pytest.mark.parametrize("seed", range(20))
def test_roundtrip_rf(seed):
    rng = random.Random(4000 + seed)
    f = random_rf(rng)
    assert parse_rf(rf_text(f)) == f


def test_not_polynomial():
    with pytest.raises(ExpressionError):
        parse_poly("1/(x[1][1])")
