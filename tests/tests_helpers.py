"""Shared random generators (seeded by callers), points and oracles for
the test suite."""

import math
from fractions import Fraction
from functools import cache

import sympy

from gtsingular import ratfun
from gtsingular.distributions import DistVector, materialize
from gtsingular.gtformulas import phi_general
from gtsingular.poly import _FIELD, Polynomial, divexact, mono_pairs
from gtsingular.ratfun import RationalFunction, multiply_by_linear
from gtsingular.skewring import ring_commutator, ring_mul_circ
from gtsingular.suites import random_shift
from gtsingular.tableau import Point, apply_shift

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

# An order-5 point, 1-singular at the row-2 pair (2,1,2); every other
# coordinate has its own prime denominator.
ORDER5_ROWS = [
    [Fraction(1, 5)],
    [Fraction(1, 3), Fraction(1, 3)],
    [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)],
    [Fraction(1, 17), Fraction(2, 19), Fraction(3, 23), Fraction(4, 29)],
    [Fraction(1, 31), Fraction(2, 37), Fraction(3, 41), Fraction(4, 43), Fraction(5, 47)],
]
ORDER5_POINT = Point.from_rows(ORDER5_ROWS)

# ORDER5_POINT with a sixth row of prime denominators: an order-6 point,
# 1-singular at (2,1,2) again.
ORDER6_POINT = Point.from_rows(
    ORDER5_ROWS
    + [[Fraction(1, 53), Fraction(2, 59), Fraction(3, 61), Fraction(4, 67), Fraction(5, 71),
        Fraction(6, 73)]]
)


def mono_degree(m):
    """The total degree of a packed monomial: its lowest field."""
    return m & _FIELD


def random_dist_vector(rng, ctx):
    terms = []
    for _ in range(rng.randint(1, 3)):
        sigma = random_shift(rng, ctx.n, radius=2)
        kind = rng.choice(["D1", "D2"])
        if kind == "D2" and sigma.component(ctx.pos_i) == sigma.component(ctx.pos_j):
            kind = "D1"
        terms.append((kind, sigma, Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
    return DistVector.from_terms(ctx, terms)


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


def assert_canonical(f):
    """A forms-path value: monic linear forms, none dividing num."""
    for form, e in f.forms.items():
        assert e > 0 and ratfun._is_linear(form) and form.leading_coeff() == 1
        assert divexact(f.num, form) is None
    assert f.den.leading_coeff() == 1


@cache
def bracket_image(n, r, s):
    """The image of E(r,s) built as the bracket [E(r,t), E(t,s)] of its
    neighbouring images, t the neighbour of r toward s, under the product
    a*b = b o a: an oracle for the path formula of `phi_general` that
    shares only the adjacent images with it."""
    if abs(r - s) <= 1:
        return phi_general(n, r, s)
    t = r + 1 if s > r else r - 1
    return ring_commutator(bracket_image(n, t, s), phi_general(n, r, t))


def taylor_series(p, coords, a, b, order):
    """[D^k p(v) / k! for k = 0..order] with D = (d/dx_a - d/dx_b) / 2: the
    Taylor coefficients of the polynomial p along x_a = v_a + t/2,
    x_b = v_b - t/2 through v = coords, from symbolic derivatives.  An
    oracle for `Polynomial.line_series` and `Line.product_series`, which
    build no derivative."""
    out = []
    for k in range(order + 1):
        out.append(p.evaluate(coords) / math.factorial(k))
        p = (p.derivative(a) - p.derivative(b)).scale(Fraction(1, 2))
    return out


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
    product = ring_mul_circ(materialize(ctx, bv), a)
    terms = []
    for rho, h in product.terms.items():
        g = multiply_by_linear(h, ctx.z1_poly)
        terms.append(("D2", rho, g.evaluate(v)))
        terms.append(("D1", rho, ctx.partial_z1(g).evaluate(v)))
    return DistVector.from_terms(ctx, terms)


def regular_on_orbit(ctx, a):
    """Whether z1*h is regular, for every coefficient h of a, at v and at
    every support translate sigma(v): the orbit admissibility of the
    generator images.  Stricter than `is_at_most_one_singular`, the
    pointwise condition: products of admissible elements meet that one,
    not always this."""
    points = [ctx.v] + [apply_shift(sigma, ctx.v) for sigma in a.terms]
    for h in a.terms.values():
        g = multiply_by_linear(h, ctx.z1_poly)
        if any(form.evaluate(p.coords) == 0 for form in g.forms for p in points):
            return False
    return True
