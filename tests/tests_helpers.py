"""Shared random generators (seeded by callers), points and oracles for
the test suite."""

from fractions import Fraction

import sympy

from gtsingular.distributions import DistVector, materialize
from gtsingular.gtformulas import convention, multiply
from gtsingular.poly import Polynomial, mono_pairs
from gtsingular.ratfun import RationalFunction, multiply_by_linear
from gtsingular.tableau import Point

VARS3 = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

# An order-4 point, 1-singular at the row-3 pair (3,1,2); every other
# coordinate has its own prime denominator.
ROW3_POINT = Point.from_rows(
    [
        [Fraction(1, 5)],
        [Fraction(1, 3), Fraction(1, 7)],
        [Fraction(2, 11), Fraction(2, 11), Fraction(3, 13)],
        [Fraction(1, 17), Fraction(2, 19), Fraction(3, 23), Fraction(4, 29)],
    ]
)


def random_poly(rng, variables=VARS3, max_terms=3, max_deg=2, zero_ok=True):
    while True:
        p = Polynomial.zero()
        for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            mono = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(variables)
                mono[v] = mono.get(v, 0) + 1
            p = p + Polynomial.term(tuple(sorted(mono.items())), c)
        if zero_ok or not p.is_zero():
            return p


def random_rf(rng, variables=VARS3, max_deg=2):
    num = random_poly(rng, variables, max_terms=3, max_deg=max_deg)
    den = random_poly(rng, variables, max_terms=2, max_deg=1, zero_ok=False)
    return RationalFunction(num, den)


def to_sympy(p):
    """The polynomial as an expanded sympy expression; x[k][i] is the
    symbol x_k_i."""
    expr = sympy.Integer(0)
    for m, c in p.terms.items():
        t = sympy.Rational(c, p.den)
        for (k, i), e in mono_pairs(m):
            t *= sympy.Symbol(f"x_{k}_{i}") ** e
        expr += t
    return sympy.expand(expr)


def symbolic_act(ctx, a, bv):
    """The column of `distributions.act` by the symbolic product: B o A is
    built in the skew ring, each of its coefficients h becomes g = z1*h
    and is differentiated along z1, and both are evaluated at v (g(v) on
    D2, (dg/dz1)(v) on D1).  An oracle for the action, which forms no
    product; a pole at v raises PoleError here."""
    v = ctx.v.coords
    product = multiply(convention(), a, materialize(ctx, bv))
    terms = []
    for rho, h in product.terms.items():
        g = multiply_by_linear(h, ctx.z1_poly)
        terms.append(("D2", rho, g.evaluate(v)))
        terms.append(("D1", rho, ctx.partial_z1(g).evaluate(v)))
    return DistVector.from_terms(ctx, terms)
