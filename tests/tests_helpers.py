"""Shared random generators (seeded by callers), points and oracles for
the test suite."""

import math
from fractions import Fraction
from functools import cache
from pathlib import Path

import sympy

from gtsingular import ratfun
from gtsingular.distributions import DistVector, apply_dist, materialize
from gtsingular.gtformulas import phi_general
from gtsingular.poly import _FIELD, Polynomial, divexact, mono_pairs
from gtsingular.ratfun import PoleError, RationalFunction, multiply_by_linear
from gtsingular.skewring import ring_commutator, ring_mul_circ
from gtsingular.sparse import BasisVec
from gtsingular.suites import random_shift
from gtsingular.tableau import Point, apply_shift

VARS3 = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]

# The points the heavy checks of tools/reports.py run at, each read from
# its file under fixtures/, named by its order and singular pair.
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# An order-4 point, 1-singular at the row-3 pair (3,1,2); every other
# coordinate has its own prime denominator.
ROW3_POINT = Point.load(FIXTURES / "point_n4_3_1_2.json")

# An order-5 point, 1-singular at the row-2 pair (2,1,2); every other
# coordinate has its own prime denominator.
ORDER5_POINT = Point.load(FIXTURES / "point_n5_2_1_2.json")

# ORDER5_POINT with a sixth row of prime denominators: an order-6 point,
# 1-singular at (2,1,2) again.
ORDER6_POINT = Point.load(FIXTURES / "point_n6_2_1_2.json")


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


def label_value(ctx, kind, sigma, f):
    """D1 or D2 at any shift label, ordered or not, on an invariant test
    function f: `apply_dist` on the one label, read unreduced."""
    return apply_dist(ctx, DistVector._raw({BasisVec(kind, sigma): 1}), f)


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


def rf_derivative(f, var):
    """d f / d var by the quotient rule on the expanded numerator N and
    denominator D: (N' D - N D') / D**2, with D**2 built as each form of f
    inverted twice its multiplicity.  An oracle that shares only
    `Polynomial.derivative` with the library."""
    n, d = f.num, f.den
    out = RationalFunction.from_poly(n.derivative(var) * d - n * d.derivative(var))
    for form, e in f.forms.items():
        for _ in range(2 * e):
            out = out * RationalFunction(Polynomial.one(), form)
    return out


def z1_value_and_slope(ctx, g):
    """(g(v), (dg/dz1)(v)) by the quotient rule on the expanded numerator N
    and denominator D, (N/D, (N_z D - N D_z) / D**2) at v, with
    p_z = (dp/dx(k,i) - dp/dx(k,j)) / 2.  PoleError when D(v) = 0."""
    v = ctx.v.coords

    def value_and_slope(p):
        p_z = (p.derivative(ctx.pos_i) - p.derivative(ctx.pos_j)).scale(Fraction(1, 2))
        return p.evaluate(v), p_z.evaluate(v)

    n, n_z = value_and_slope(g.num)
    d, d_z = value_and_slope(g.den)
    if not d:
        raise PoleError("denominator vanishes at v")
    return n / d, (n_z * d - n * d_z) / d**2


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
    built in the skew ring, each of its coefficients h becomes g = z1*h,
    and `z1_value_and_slope` reads g at v (g(v) on D2, (dg/dz1)(v) on D1).
    An oracle for the action, which forms no product; a pole at v raises
    PoleError here."""
    product = ring_mul_circ(materialize(ctx, bv), a)
    terms = []
    for rho, h in product.terms.items():
        value, slope = z1_value_and_slope(ctx, multiply_by_linear(h, ctx.z1_poly))
        terms.append(("D2", rho, value))
        terms.append(("D1", rho, slope))
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
