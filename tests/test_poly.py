import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gtsingular import poly
from gtsingular.gtformulas import phi_general
from gtsingular.poly import Polynomial, divexact, mono_div, mono_pack, mono_pairs, poly_gcd
from gtsingular.tableau import canonical_test_point
from tests_helpers import to_sympy

X11 = Polynomial.variable(1, 1)
X21 = Polynomial.variable(2, 1)
X22 = Polynomial.variable(2, 2)
X31 = Polynomial.variable(3, 1)

VARS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


def random_poly(rng, max_terms=4, max_deg=3, zero_ok=True):
    while True:
        nterms = rng.randint(0 if zero_ok else 1, max_terms)
        p = Polynomial.zero()
        for _ in range(nterms):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mono = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(VARS)
                mono[v] = mono.get(v, 0) + 1
            p = p + Polynomial.term(tuple(sorted(mono.items())), c)
        if zero_ok or not p.is_zero():
            return p


def pair_terms(d):
    """A term map with its packed monomials spelled as pair tuples."""
    return {mono_pairs(m): c for m, c in d.items()}


# --- basic arithmetic -------------------------------------------------------


def test_construction_drops_zeros():
    p = Polynomial({(): Fraction(0), (((1, 1), 1),): Fraction(2)})
    assert pair_terms(p.terms) == {(((1, 1), 1),): Fraction(2)}


def test_add_sub_cancel():
    p = X11 * X21 + X22
    assert (p - p).is_zero()


def test_mul_known():
    p = (X21 - X22) * (X21 + X22)
    assert p == X21 * X21 - X22 * X22


def test_pow():
    assert (X11 + Polynomial.one()) ** 2 == X11 * X11 + X11.scale(2) + Polynomial.one()


def test_grlex_leading():
    p = X11 * X11 + X21 * X22 * X31 + X22
    assert mono_pairs(p.leading_monomial()) == (((2, 1), 1), ((2, 2), 1), ((3, 1), 1))
    q = X11 * X11 + X21 * X22
    assert mono_pairs(q.leading_monomial()) == (((1, 1), 2),)


ORDER4 = [(k, i) for k in range(1, 5) for i in range(1, k + 1)]
ALL_POSITIONS = [(k, i) for k in range(1, poly.MAX_ORDER + 1) for i in range(1, k + 1)]
TOP = 2**15 - 1


def grlex_key(pairs):
    """Graded lex on pair tuples, written out: total degree first, then the
    exponent vector with earlier positions more significant."""
    exps = dict(pairs)
    return (sum(exps.values()), tuple(exps.get(v, 0) for v in ALL_POSITIONS))


def pair_div(a, b):
    """a / b on pair tuples, or None when some exponent would go negative."""
    out = dict(a)
    for v, e in b:
        r = out.get(v, 0) - e
        if r < 0:
            return None
        out[v] = r
    return tuple(sorted((v, e) for v, e in out.items() if e))


def small_monomials():
    """All 1,001 monomials of degree <= 4 over the ten order-4 positions."""
    monos = [
        tuple(sorted(Counter(combo).items()))
        for deg in range(5)
        for combo in itertools.combinations_with_replacement(ORDER4, deg)
    ]
    assert len(set(monos)) == len(monos) == 1001
    return monos


# the last position and the largest exponent, alone and combined
BOUNDARY = [
    (((12, 12), 1),),
    (((12, 11), 1), ((12, 12), 2)),
    (((12, 12), TOP),),
    (((1, 1), TOP),),
    (((1, 1), 1), ((12, 12), TOP - 1)),
    (((4, 4), TOP - 4),),
]


def pair_mul(a, b):
    """a * b on pair tuples."""
    out = Counter(dict(a))
    out.update(dict(b))
    return tuple(sorted(out.items()))


def test_mono_key_total_order():
    """On every pair of small monomials, and on the boundary monomials
    against all of them: mono_key sorts as graded lex, native integer order
    is a monomial order, and the guard-bit division is exact division."""
    monos = small_monomials() + BOUNDARY
    packed = {m: mono_pack(m) for m in monos}
    assert len(set(packed.values())) == len(monos)
    assert all(mono_pairs(packed[m]) == m for m in monos)
    assert all(poly.mono_degree(packed[m]) == grlex_key(m)[0] for m in monos)
    # two total orders on one set agree when they sort it alike
    assert sorted(monos, key=grlex_key) == sorted(monos, key=lambda m: poly.mono_key(packed[m]))
    # native order: the constant is the least monomial, and multiplying by
    # any c keeps the order (the packed product is the sum, no field carries)
    native = sorted(monos, key=packed.get)
    assert native[0] == () and packed[()] == 0
    for c in random.Random(5).sample(monos[:1001], 40) + BOUNDARY:
        fit = [m for m in native if grlex_key(m)[0] + grlex_key(c)[0] <= TOP]
        prods = [mono_pack(pair_mul(m, c)) for m in fit]
        assert prods == [packed[m] + packed[c] for m in fit]
        assert prods == sorted(prods)
    pairs = [(a, b) for a in monos[:1001] for b in monos[:1001]]
    pairs += [(a, b) for a in BOUNDARY for b in monos] + [(b, a) for a in BOUNDARY for b in monos]
    for a, b in pairs:
        q = mono_div(packed[a], packed[b])
        expect = pair_div(a, b)
        assert (None if q is None else mono_pairs(q)) == expect, (a, b)
    rng = random.Random(11)
    for _ in range(40):
        sample = rng.sample(monos, rng.randint(1, 12))
        p = Polynomial({m: Fraction(1) for m in sample})
        by_key = sorted(sample, key=grlex_key, reverse=True)
        assert [mono_pairs(m) for m, _ in p.sorted_items()] == by_key
        assert [mono_pairs(m) for m in p.support()] == by_key
        assert mono_pairs(p.leading_monomial()) == by_key[0]


def test_monomial_width_follows_the_order():
    """An order-n monomial fits in 16 * (n(n+1)/2 + 1) bits: the degree
    field and one field per position of order n, none for MAX_ORDER."""
    for n in range(1, 5):
        bits = 16 * (n * (n + 1) // 2 + 1)
        positions = ORDER4[: n * (n + 1) // 2]
        monos = [m for m in small_monomials() if all(v in positions for v, _ in m)]
        monos += [((positions[-1], TOP),), ((positions[0], 1), (positions[-1], TOP - 1))]
        assert max(mono_pack(m).bit_length() for m in monos) <= bits
        assert mono_pack(((positions[-1], 1),)).bit_length() > bits - 16
    image = phi_general(4, 1, 4)
    widths = [m.bit_length() for f in image.terms.values() for p in (f.num, f.den) for m in p.terms]
    assert widths and max(widths) <= 16 * 11


def test_exponent_overflow_raises():
    """A degree past 2^15 - 1 raises instead of carrying into the next
    field."""
    with pytest.raises(ValueError, match="degree"):
        X11**40000
    top = X11**TOP
    assert pair_terms(top.terms) == {(((1, 1), TOP),): 1}
    with pytest.raises(ValueError, match="degree"):
        top * X21
    with pytest.raises(ValueError, match="degree"):
        Polynomial.term((((12, 12), TOP), ((1, 1), 1)), 1)
    # the degree field sits just below (1,1): one past the limit raises
    # instead of carrying into it, and the largest degree packs intact
    with pytest.raises(ValueError, match=r"^monomial degree 32768 exceeds 32767$"):
        mono_pack((((1, 1), TOP), ((2, 1), 1)))
    with pytest.raises(ValueError, match=r"^monomial degree 70000 exceeds 32767$"):
        mono_pack((((1, 1), 40000), ((2, 1), 30000)))
    edge = mono_pack((((1, 1), TOP - 1), ((2, 1), 1)))
    assert poly.mono_degree(edge) == TOP and mono_pairs(edge) == (((1, 1), TOP - 1), ((2, 1), 1))
    with pytest.raises(ValueError, match=r"^product degree exceeds 32767$"):
        X11 ** 2**14 * X21 ** 2**14
    # the product's degree is checked on its top-degree terms, not on the
    # natively largest ones (x[2][1] outranks x[1][1]^TOP)
    with pytest.raises(ValueError, match=r"^product degree exceeds 32767$"):
        (X21 + top) * X11
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.term((((1, 1), -1),), 1)
    # the largest exponent still differentiates and divides exactly
    assert top.derivative((1, 1)) == (X11 ** (TOP - 1)).scale(TOP)
    assert divexact(top, X11 ** (TOP - 1)) == X11


def test_evaluate():
    p = X21 - X22
    assert p.evaluate({(2, 1): Fraction(1, 2), (2, 2): Fraction(1, 3)}) == Fraction(1, 6)


def fraction_eval(p, coords):
    """The value of p at coords, one Fraction product per term."""
    total = Fraction(0)
    for m, c in p.terms.items():
        t = Fraction(c, p.den)
        for v, e in mono_pairs(m):
            t *= Fraction(coords[v]) ** e
        total += t
    return total


SHIPPED = canonical_test_point(3).coords
EVAL_POINTS = {
    "shipped": SHIPPED,
    "integer": {(k, i): 3 * k - 2 * i for k, i in SHIPPED},
    "zero": {**SHIPPED, (2, 1): Fraction(0), (3, 2): Fraction(-5, 7)},
}


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_matches_fraction_loop(seed):
    """The integer kernel behind evaluate against a Fraction loop."""
    rng = random.Random(400 + seed)
    for _ in range(12):
        p = random_poly(rng, max_terms=6, max_deg=4)
        for name, point in EVAL_POINTS.items():
            assert p.evaluate(point) == fraction_eval(p, point), name


@pytest.mark.parametrize("seed", range(4))
def test_line_series_matches_taylor(seed):
    """The Taylor coefficients along x_a = v_a + e/2, x_b = v_b - e/2 are
    D^k p(v) / k! with D = (d/dx_a - d/dx_b) / 2, here built from
    symbolic derivatives; the series stops at the requested order."""
    rng = random.Random(500 + seed)
    a, b = (2, 1), (2, 2)
    for _ in range(12):
        p = random_poly(rng, max_terms=6, max_deg=4)
        for name, point in EVAL_POINTS.items():
            want, d = [], p
            for k in range(6):
                want.append(d.evaluate(point) / math.factorial(k))
                d = (d.derivative(a) - d.derivative(b)).scale(Fraction(1, 2))
            for order in (0, 1, 5):
                assert p.line_series(point, a, b, order) == want[: order + 1], name
    assert Polynomial.zero().line_series(SHIPPED, a, b, 2) == [0, 0, 0]


def test_input_guards():
    with pytest.raises(ValueError, match="out of range for order 12"):
        Polynomial.variable(13, 1)
    with pytest.raises(ValueError, match="invalid tableau position"):
        Polynomial.variable(2, 3)
    with pytest.raises(ValueError, match="not constant"):
        X11.constant_value()
    assert X11.__mul__(2) is NotImplemented
    with pytest.raises(TypeError):
        X11 * 2
    with pytest.raises(ValueError, match="negative power"):
        X11**-1
    with pytest.raises(ValueError, match="no leading monomial"):
        Polynomial.zero().leading_monomial()
    p = X11 * X21 + X22
    assert p.subs_offsets({(1, 1): 0, (2, 1): Fraction(0)}) is p
    assert p.swap_vars((2, 1), (2, 1)) is p
    with pytest.raises(ZeroDivisionError):
        divexact(p, Polynomial.zero())


def test_derivative():
    p = (X21 - X22) ** 2
    assert p.derivative((2, 1)) == (X21 - X22).scale(2)
    assert p.derivative((1, 1)).is_zero()


def test_subs_offsets():
    p = X11 * X11
    q = p.subs_offsets({(1, 1): Fraction(-1)})
    assert q == X11 * X11 - X11.scale(2) + Polynomial.one()


def test_swap_vars():
    p = X21 - X22
    assert p.swap_vars((2, 1), (2, 2)) == X22 - X21
    sym = X21 * X22
    assert sym.swap_vars((2, 1), (2, 2)) == sym


# --- randomized cross-checks against sympy ---------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_arith_matches_sympy(seed):
    rng = random.Random(seed)
    f = random_poly(rng)
    g = random_poly(rng)
    h = random_poly(rng)
    mine = to_sympy(f * g + h - f)
    theirs = sympy.expand(to_sympy(f) * to_sympy(g) + to_sympy(h) - to_sympy(f))
    assert sympy.simplify(mine - theirs) == 0


# Both share x[2][2] - 1; a gcd that loses integer content along the way
# calls them coprime.
X33 = Polynomial.variable(3, 3)
GCD_CONTENT_PAIR = (
    (X21 * X22).scale(2) + (X22 * X33).scale(Fraction(1, 2))
    - X21.scale(2) - X33.scale(Fraction(1, 2)),
    X22 * X33 - X33,
)
# The remainder sequence answers these with no shortcut of its own: a shared
# monomial content, a one-term operand, equal operands, no shared variable.
F1 = X22 * X31 - X11 + Polynomial.constant(3)
G1 = X21 * X22 + X31.scale(2) - Polynomial.one()
GCD_NAMED_PAIRS = {
    "content": GCD_CONTENT_PAIR,
    "monomial": (X11 * X11 * X21 * F1, X11 * X21 * X21 * X21 * G1),
    "one-term": ((X11 * X21 * X21).scale(Fraction(3, 2)), X21 * F1),
    "equal": (F1 * G1, F1 * G1),
    "disjoint": ((X11 + Polynomial.one()) * (X11 - Polynomial.constant(2)), X22 * X31 + X22.scale(3)),
}


@pytest.mark.parametrize(
    "case, prs",
    [
        pytest.param(case, prs, id=f"prs-{case}" if prs else str(case))
        for prs in (False, True)
        for case in [*range(12), *GCD_NAMED_PAIRS]
    ],
)
def test_gcd_matches_sympy(case, prs):
    """The gcd against sympy.  With prs the operands are first cleared to
    integer coefficients sharing the factor 6, where the remainder sequence
    must also keep the integer content: the gcd then agrees with sympy's up
    to sign."""
    if case in GCD_NAMED_PAIRS:
        a, b = GCD_NAMED_PAIRS[case]
    else:
        rng = random.Random(100 + case)
        f = random_poly(rng, max_terms=3, max_deg=2, zero_ok=False)
        g = random_poly(rng, max_terms=3, max_deg=2, zero_ok=False)
        h = random_poly(rng, max_terms=2, max_deg=2, zero_ok=False)
        a, b = f * h, g * h
    if prs:
        a, b = (p * Polynomial.constant(6 * p.den) for p in (a, b))
    d = poly_gcd(a, b)
    assert d.leading_coeff() > 0  # the graded-lex lead, whatever the native one
    mine = to_sympy(d)
    theirs = sympy.gcd(to_sympy(a), to_sympy(b))
    quot = sympy.simplify(mine / theirs)
    if prs:
        assert quot in (1, -1)
    else:
        # both are defined up to a rational unit
        assert quot.is_rational and quot != 0


@pytest.mark.parametrize("seed", range(12))
def test_divexact_roundtrip(seed):
    rng = random.Random(200 + seed)
    f = random_poly(rng, zero_ok=False)
    g = random_poly(rng, zero_ok=False)
    assert divexact(f * g, g) == f


def test_divexact_rejects_inexact():
    assert divexact(X11 * X21 + Polynomial.one(), X21) is None


@pytest.mark.parametrize("seed", range(12))
def test_divexact_matches_sympy_div(seed):
    """A quotient exactly when sympy leaves no remainder, and then the same one."""
    rng = random.Random(200 + seed)
    f = random_poly(rng, zero_ok=False)
    g = random_poly(rng, zero_ok=False)
    gens = [sympy.Symbol(f"x_{k}_{i}") for k, i in VARS]
    for a, b in ((f * g, g), (f, g), (g, f), (f * g + f, g)):
        q, r = sympy.div(to_sympy(a), to_sympy(b), *gens, domain=sympy.QQ)
        mine = divexact(a, b)
        if r == 0:
            assert mine is not None and sympy.expand(to_sympy(mine) - q) == 0
        else:
            assert mine is None


def random_int_terms(rng, max_terms=4, max_deg=3):
    d = {}
    while not d:
        for _ in range(rng.randint(1, max_terms)):
            mono = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(VARS)
                mono[v] = mono.get(v, 0) + 1
            c = rng.randint(-5, 5)
            if c:
                d[mono_pack(mono.items())] = c
    return d


@pytest.mark.parametrize("seed", range(12))
def test_int_divexact_roundtrip(seed):
    rng = random.Random(300 + seed)
    f = random_int_terms(rng)
    g = random_int_terms(rng)
    assert poly._int_divexact(poly._int_mul(f, g), g) == f


def test_divexact_stops_at_a_quotient_term_of_too_high_degree():
    """Native order is lex, so a divisor's leading term need not have its
    top degree and the remainder's exponents can grow.  A quotient term of
    degree above deg f - deg g ends an inexact division before any exponent
    passes its field: here x[2][1] would climb to 200^2 = 40,000."""
    g = X22 + X21**200
    assert poly.mono_pairs(max(g.terms)) == (((2, 2), 1),)
    assert divexact(X22**200, g) is None
    f = g * (X11 * X22 - X21**3)
    assert divexact(f, g) == X11 * X22 - X21**3


def test_int_divexact_coefficient_remainder():
    x = mono_pack((((1, 1), 1),))
    assert poly._int_divexact({x: 1}, {x: 2}) is None
    assert pair_terms(poly._int_divexact({x: 4}, {x: 2})) == {(): 2}
    # over Q the same division is exact
    assert divexact(X11, X11.scale(2)) == Polynomial.constant(Fraction(1, 2))


def test_divexact_nonunit_fraction_lead():
    g = (X21 * X22).scale(Fraction(2, 3)) - X11.scale(Fraction(5, 7)) + Polynomial.constant(3)
    assert g.leading_coeff() == Fraction(2, 3)
    rng = random.Random(7)
    for _ in range(8):
        f = random_poly(rng, zero_ok=False)
        assert divexact(f * g, g) == f
        assert divexact(f * g + Polynomial.one(), g) is None


def test_divexact_cancelled_monomial_reappears(monkeypatch):
    """Dividing q*g by g cancels x11*x21 and x11*x21^2 from the remainder in
    the first step; the second brings x11*x21 back, while x11*x21^2 leaves a
    stale heap entry that must be skipped."""
    q = X11 * X21 - X11 - Polynomial.one()
    g = X11 * X21 - X21 + Polynomial.one()
    popped = []
    heappop = poly.heappop

    def recording_heappop(heap):
        entry = heappop(heap)
        popped.append(mono_pairs(-entry))
        return entry

    monkeypatch.setattr(poly, "heappop", recording_heappop)
    assert divexact(q * g, g) == q
    stale = (((1, 1), 1), ((2, 1), 2))
    assert popped.count(stale) == 1 and len(popped) == len(q.terms) + 1
    popped.clear()
    assert poly._int_divexact((q * g).terms, g.terms) == q.terms
    assert stale in popped


def test_support_uses_print_order():
    """Polynomials list their monomials the way poly_text prints them."""
    p = X21 + Polynomial.one()
    assert [mono_pairs(m) for m in p.support()] == [(((2, 1), 1),), ()]
    assert [(mono_pairs(m), c) for m, c in p.sorted_items()] == [
        ((((2, 1), 1),), Fraction(1)),
        ((), Fraction(1)),
    ]
    assert repr(p) == "x[2][1] + 1"


def test_gcd_of_coprime_is_constant():
    g = poly_gcd(X11 + Polynomial.one(), X21 + X22)
    assert g.is_constant() and not g.is_zero()


def test_gcd_common_linear_factor():
    z1 = X21 - X22
    f = z1 * (X11 + Polynomial.one())
    g = z1 * z1 * X31
    # the graded-lex lead x[2][1] is positive, the native largest term
    # -x[2][2] negative
    assert poly_gcd(f, g) == z1 == poly_gcd(-f, g)


def test_gcd_with_zero():
    f = X11 * X21
    assert divexact(poly_gcd(f, Polynomial.zero()), f) is not None
    assert poly_gcd(Polynomial.zero(), Polynomial.zero()).is_zero()


# --- the integer form terms/den ----------------------------------------------


def assert_int_form(p):
    """den is a positive int prime to the content of the nonzero int terms;
    zero is ({}, 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1


SYM = {v: sympy.Symbol(f"x_{v[0]}_{v[1]}") for v in VARS}


def check(p, expr):
    assert_int_form(p)
    assert sympy.expand(to_sympy(p) - expr) == 0


@pytest.mark.parametrize("seed", range(10))
def test_int_form_matches_sympy(seed):
    """Every operation against sympy on rational-coefficient inputs, with
    the integer form checked on every result."""
    rng = random.Random(500 + seed)
    f, g, h = (random_poly(rng, zero_ok=False) for _ in range(3))
    F, G = to_sympy(f), to_sympy(g)
    for p in (f, g, h):
        assert_int_form(p)
    check(f + g, F + G)
    check(f - g, F - G)
    check(f - f, 0)
    check(-f, -F)
    check(f * g, F * G)
    check(f**3, F**3)
    check(f.scale(Fraction(-3, 4)), F * sympy.Rational(-3, 4))
    check(f.scale(6), F * 6)
    check(f.derivative((2, 1)), sympy.diff(F, SYM[(2, 1)]))
    swap = {SYM[(2, 1)]: SYM[(3, 2)], SYM[(3, 2)]: SYM[(2, 1)]}
    check(f.swap_vars((2, 1), (3, 2)), F.subs(swap, simultaneous=True))
    offsets = {(2, 1): Fraction(1, 2), (1, 1): Fraction(-2), (3, 2): Fraction(-5, 3)}
    moved = {SYM[v]: SYM[v] + sympy.Rational(c.numerator, c.denominator) for v, c in offsets.items()}
    check(f.subs_offsets(offsets), F.subs(moved, simultaneous=True))
    point = {v: Fraction(2 * i - 3, 7 + i) for i, v in enumerate(VARS)}
    value = F.subs({SYM[v]: sympy.Rational(c.numerator, c.denominator) for v, c in point.items()})
    assert f.evaluate(point) == Fraction(int(sympy.numer(value)), int(sympy.denom(value)))
    # exact division, also by a divisor with fractional content
    for divisor in (g, g.scale(Fraction(6, 5))):
        q = divexact(f * divisor, divisor)
        assert q == f
        assert_int_form(q)
    q, r = sympy.div(F * G + 1, G, *SYM.values(), domain=sympy.QQ)
    inexact = divexact(f * g + Polynomial.one(), g)
    if r == 0:
        check(inexact, q)
    else:
        assert inexact is None
    d = poly_gcd(f * h, g * h)
    assert_int_form(d)
    assert d.den == 1
    assert sympy.simplify(to_sympy(d) / sympy.gcd(to_sympy(f * h), to_sympy(g * h))).is_rational


def test_normaliser_paths():
    """An integer product skips the gcd scan, a product over a denominator
    reduces, and a sum meets over the lcm of its denominators."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = X11 * X21
    assert p.den == 1 and pair_terms(p.terms) == {(((1, 1), 1), ((2, 1), 1)): 1}
    p = X11.scale(half) * X21.scale(2)
    assert p.den == 1 and p == X11 * X21
    p = X11.scale(half) + X21.scale(third)
    assert p.den == 6 and pair_terms(p.terms) == {(((1, 1), 1),): 3, (((2, 1), 1),): 2}
    p = X11.scale(Fraction(1, 6)) + X11.scale(third)
    assert p.den == 2 and p == X11.scale(half)
    p = X11.scale(half) - X21.scale(half)
    assert p.den == 2 and pair_terms(p.terms) == {(((1, 1), 1),): 1, (((2, 1), 1),): -1}
    assert (p - p).den == 1 and (p - p).is_zero()
    for q in (X11.scale(half), p, p * p, -p):
        assert_int_form(q)


def test_equal_terms_unequal_den():
    """(terms, den) is the whole value: the same integer terms over another
    denominator are another polynomial, and hashing agrees with equality."""
    a = X11 + X21
    b = a.scale(Fraction(1, 3))
    assert a.terms == b.terms and a.den == 1 and b.den == 3
    assert a != b and b != a
    c = Polynomial({(((1, 1), 1),): Fraction(1, 3), (((2, 1), 1),): Fraction(1, 3)})
    assert b == c and hash(b) == hash(c)
    assert len({a, b, c}) == 2
    assert Polynomial.constant(Fraction(2, 3)).constant_value() == Fraction(2, 3)
    assert b.leading_coeff() == Fraction(1, 3)


def test_int_divexact_strict_raises_on_a_remainder():
    """The gcd's exact divisions go through a checked wrapper; a division
    that leaves a remainder there is an internal error."""
    assert poly._int_divexact_strict((X11 * X21).terms, X21.terms) == X11.terms
    with pytest.raises(ArithmeticError, match="internal gcd error"):
        poly._int_divexact_strict(X11.terms, X21.terms)


# --- hypothesis properties --------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    p = Polynomial.zero()
    for _ in range(n):
        c = draw(small_fracs)
        exps = draw(
            st.lists(st.sampled_from(VARS), min_size=0, max_size=3)
        )
        mono = {}
        for v in exps:
            mono[v] = mono.get(v, 0) + 1
        p = p + Polynomial.term(tuple(sorted(mono.items())), c)
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_mul_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_derivative_leibniz(f, g):
    v = (2, 1)
    lhs = (f * g).derivative(v)
    rhs = f.derivative(v) * g + f * g.derivative(v)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys())
def test_subs_offsets_evaluation(f):
    offs = {(2, 1): Fraction(3, 2), (1, 1): Fraction(-1)}
    point = {v: Fraction(i + 2, 7) for i, v in enumerate(VARS)}
    shifted_point = {v: point[v] + offs.get(v, 0) for v in VARS}
    assert f.subs_offsets(offs).evaluate(point) == f.evaluate(shifted_point)
