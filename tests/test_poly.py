import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gtsingular import poly, ratfun
from gtsingular.gtformulas import phi_general
from gtsingular.poly import Line, Polynomial, divexact, mono_pack, mono_pairs
from gtsingular.tableau import canonical_test_point
from tests_helpers import ROW3_POINT, mono_degree, taylor_series, to_sympy

X11 = Polynomial.variable(1, 1)
X21 = Polynomial.variable(2, 1)
X22 = Polynomial.variable(2, 2)
X31 = Polynomial.variable(3, 1)

VARS = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)]


def random_poly(rng, max_terms=4, max_deg=3, zero_ok=True, variables=VARS):
    while True:
        nterms = rng.randint(0 if zero_ok else 1, max_terms)
        p = Polynomial.zero()
        for _ in range(nterms):
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mono = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(variables)
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
    against all of them: mono_key sorts as graded lex and native integer
    order is a monomial order."""
    monos = small_monomials() + BOUNDARY
    packed = {m: mono_pack(m) for m in monos}
    assert len(set(packed.values())) == len(monos)
    assert all(mono_pairs(packed[m]) == m for m in monos)
    assert all(mono_degree(packed[m]) == grlex_key(m)[0] for m in monos)
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
    assert mono_degree(edge) == TOP and mono_pairs(edge) == (((1, 1), TOP - 1), ((2, 1), 1))
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
    assert divexact(X11 ** (TOP - 1) * (X11 - X21), X11 - X21) == X11 ** (TOP - 1)


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


def _powers_of_the_pair(a, b, other):
    """Terms with exponents up to 4 in x_a and x_b, alone and times another
    variable, and polynomials free of both."""
    xa, xb, xc = (Polynomial.variable(*v) for v in (a, b, other))
    out = [xa**4, xb**4, xa**3 * xb, xa * xb**3, (xa * xb) ** 2 * xc,
           xa**4 * xb**4 - xa * xc, Polynomial.constant(Fraction(-7, 3)), xc**3 - xc]
    out.append(sum(out, Polynomial.zero()))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_line_series_matches_taylor(seed):
    """The first-order Taylor coefficients along x_a = v_a + e/2,
    x_b = v_b - e/2 are p(v) and D p(v) with D = (d/dx_a - d/dx_b) / 2,
    here built from symbolic derivatives (`tests_helpers.taylor_series`).
    Each line's kernel is built once and serves every polynomial; the
    order-4 case is the row-3 pair at ROW3_POINT."""
    rng = random.Random(500 + seed)
    cases = [((2, 1), (2, 2), EVAL_POINTS, VARS),
             ((3, 1), (3, 2), {"row 3": ROW3_POINT.coords}, list(ROW3_POINT.coords))]
    for a, b, points, variables in cases:
        lines = {name: Line(point, a, b) for name, point in points.items()}
        polys = _powers_of_the_pair(a, b, (1, 1))
        polys += [random_poly(rng, max_terms=6, max_deg=4, variables=variables) for _ in range(12)]
        for p in polys:
            for name, point in points.items():
                coeffs, den = p.line_series(lines[name])
                want = taylor_series(p, point, a, b, 1)
                assert [Fraction(c, den) for c in coeffs] == want, (name, p)
    assert Polynomial.zero().line_series(Line(SHIPPED, (2, 1), (2, 2))) == ([0, 0], 1)


@pytest.mark.parametrize("seed", range(4))
def test_product_series_matches_taylor(seed):
    """`Line.product_series` of a product of linear forms, read from the
    forms, against the Taylor oracle of the expanded product to order 2:
    forms of multiplicity 1 to 3, forms that vanish at the base point (one
    with a slope along the line, one constant on it, so that the product
    vanishes there to order 1 or identically), and the empty product."""
    rng = random.Random(520 + seed)
    a, b = (2, 1), (2, 2)
    for name, point in EVAL_POINTS.items():
        line = Line(point, a, b)
        base = {v: Polynomial.variable(*v) - Polynomial.constant(point[v]) for v in VARS}
        through = [base[a] - base[b], base[(3, 1)]]
        for _ in range(6):
            forms = {}
            for _ in range(rng.randint(1, 3)):
                lin = random_poly(rng, max_terms=3, max_deg=1, zero_ok=False) + X31
                if ratfun._is_linear(lin):
                    forms[ratfun._monic_form(lin)[1]] = rng.randint(1, 3)
            if rng.random() < 0.5:
                forms[ratfun._monic_form(rng.choice(through))[1]] = rng.randint(1, 2)
            coeffs, den = line.product_series(forms)
            want = taylor_series(ratfun._expand(forms.items()), point, a, b, 2)
            assert [Fraction(c, den) for c in coeffs] == want, name
        assert line.product_series({}) == ([1, 0, 0], 1)
    # a simple zero along the line and a double one
    line = Line(SHIPPED, a, b)
    z = ratfun._monic_form(X21 - X22 - Polynomial.constant(SHIPPED[a] - SHIPPED[b]))[1]
    assert [c == 0 for c in line.product_series({z: 1})[0]] == [True, False, True]
    assert [c == 0 for c in line.product_series({z: 2})[0]] == [True, True, False]


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
    q = p.subs_offsets({(1, 1): Fraction(1)})
    assert q == X11 * X11 - X11.scale(2) + Polynomial.one()
    # offsets on variables p lacks are skipped; p itself when none occurs
    assert p.subs_offsets({(2, 1): Fraction(-3), (3, 1): Fraction(1, 2)}) is p
    assert p.subs_offsets({(2, 2): Fraction(-5), (1, 1): Fraction(1)}) == q
    assert Polynomial.zero().subs_offsets({(1, 1): Fraction(-1)}).is_zero()


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


def random_linear(rng, variables=VARS):
    """A linear polynomial in one to three of the variables, with rational
    coefficients of both signs and, mostly, a constant term."""

    def c():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))

    g = Polynomial.constant(c()) if rng.random() < 0.75 else Polynomial.zero()
    for v in rng.sample(variables, rng.randint(1, 3)):
        g = g + Polynomial.variable(*v).scale(c())
    return g


@pytest.mark.parametrize("seed", range(12))
def test_divexact_roundtrip(seed):
    rng = random.Random(200 + seed)
    f = random_poly(rng, zero_ok=False)
    g = random_linear(rng)
    assert divexact(f * g, g) == f


def test_divexact_rejects_inexact():
    assert divexact(X11 * X21 + Polynomial.one(), X21) is None


@pytest.mark.parametrize("seed", range(12))
def test_divexact_matches_sympy_div(seed):
    """A quotient exactly when sympy leaves no remainder, and then the same one."""
    rng = random.Random(200 + seed)
    f = random_poly(rng, zero_ok=False)
    g = random_linear(rng)
    gens = [sympy.Symbol(f"x_{k}_{i}") for k, i in VARS]
    for a, b in ((f * g, g), (f, g), (g, g.scale(-3)), (f * g + f, g)):
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
    """On integer polynomials, with den 1 throughout: a primitive integer
    linear g whose leading coefficient is not +-1 divides f*g back to f, and
    each quotient coefficient is divided by it exactly over Z."""
    rng = random.Random(300 + seed)
    f = Polynomial._raw(random_int_terms(rng))
    a, b = rng.sample(VARS, 2)
    lead = min(a, b)  # the earlier position leads in graded-lex order
    g = Polynomial({((lead, 1),): rng.choice((-1, 1)) * rng.randint(2, 5),
                    ((max(a, b), 1),): rng.choice((-1, 1)), (): rng.randint(-5, 5)})
    assert g.den == 1 and abs(g.leading_coeff()) > 1
    assert divexact(f * g, g) == f


def test_int_divexact_coefficient_remainder():
    # over Q the division by a non-primitive form is exact
    assert divexact(X11, X11.scale(2)) == Polynomial.constant(Fraction(1, 2))


def test_divexact_nonunit_fraction_lead():
    g = X21.scale(Fraction(2, 3)) - X22.scale(Fraction(5, 7)) + Polynomial.constant(3)
    assert g.leading_coeff() == Fraction(2, 3)
    rng = random.Random(7)
    for _ in range(8):
        f = random_poly(rng, zero_ok=False)
        assert divexact(f * g, g) == f
        assert divexact(f * g + Polynomial.one(), g) is None


def oracle_divisors(rng):
    """(kind, divisor, the variables of its dividends) for each kind of
    divisor the division oracle covers.  U is the later of two positions;
    the last kind's divisor holds x[3][2], which its dividends lack.  A
    non-linear divisor is refused."""

    def c():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))

    W, U = (Polynomial.variable(*v) for v in sorted(rng.sample(VARS, 2)))
    return [
        ("constant", Polynomial.constant(c()), VARS),
        ("monic linear", U - W + Polynomial.constant(c()), VARS),
        ("non-monic linear", U.scale(c()) + W.scale(c()) + Polynomial.constant(c()), VARS),
        ("non-linear", (U * W).scale(c()) + random_poly(rng, max_deg=1), VARS),
        ("top variable absent", Polynomial.variable(3, 2).scale(c()) + U - W, VARS[:-1]),
    ]


@pytest.mark.parametrize("seed", range(16))
def test_divexact_matches_sympy_cancel(seed):
    """divexact against sympy.cancel and sympy.div over one divisor of each
    kind: q*g is exact, q*g + r with r nonzero of lower degree than a
    non-constant g is not, and a dividend q lacking a variable of g is
    exact only by a constant.  A non-linear g raises ValueError."""
    rng = random.Random(2700 + seed)
    for kind, g, variables in oracle_divisors(rng):
        G = to_sympy(g)
        deg = mono_degree(max(g.terms, key=poly.mono_key))
        q = random_poly(rng, zero_ok=False, variables=variables)
        r = random_poly(rng, max_deg=max(deg - 1, 0), zero_ok=False, variables=variables)
        if kind == "non-linear":
            for f in (q * g, q * g + r, q):
                with pytest.raises(ValueError, match="^a divisor must be constant or linear$"):
                    divexact(f, g)
            continue
        for f, exact in ((q * g, True), (q * g + r, not deg), (q, kind == "constant")):
            F = to_sympy(f)
            quo, rem = sympy.div(F, G, *SYM.values(), domain=sympy.QQ)
            den = sympy.fraction(sympy.cancel(F / G))[1]
            assert (rem == 0) == (not den.free_symbols) == exact, (kind, f, g)
            mine = divexact(f, g)
            if exact:
                assert sympy.expand(to_sympy(mine) - quo) == 0, (kind, f, g)
            else:
                assert mine is None, (kind, f, g)


@pytest.mark.parametrize("seed", range(8))
def test_divexact_by_a_negated_form(seed):
    """g = x_b - x_a with a the earlier position, so g's leading
    coefficient is -1.  divexact divides by g made positive in its leading
    variable and restores the quotient's sign: divexact(f, -g) ==
    -divexact(f, g), each equal to sympy's quotient, or both None."""
    rng = random.Random(2800 + seed)
    a, b = sorted(rng.sample(VARS, 2))
    g = Polynomial.variable(*b) - Polynomial.variable(*a)
    assert g.leading_coeff() == -1 and (-g).leading_coeff() == 1
    q = random_poly(rng, zero_ok=False).scale(Fraction(rng.randint(1, 5), rng.randint(1, 4)))
    for f, exact in ((q * g, True), (q * g + Polynomial.one(), False)):
        mine, negated = divexact(f, g), divexact(f, -g)
        if exact:
            quo, rem = sympy.div(to_sympy(f), to_sympy(g), *SYM.values(), domain=sympy.QQ)
            assert rem == 0 and sympy.expand(to_sympy(mine) - quo) == 0, (f, g)
            assert negated == -mine
        else:
            assert mine is None and negated is None


def test_divexact_early_returns():
    """Each way the division ends early, through the public call: a divisor
    free of variables scales, whatever its sign; a quotient coefficient is
    not exact over Z; something is left in rem[0], also when f lacks g's
    leading variable; a zero dividend divides to zero; and a divisor of
    degree 2 or more raises."""
    one, zero = Polynomial.one(), Polynomial.zero()
    assert divexact(X11.scale(3), Polynomial.constant(2)) == X11.scale(Fraction(3, 2))
    assert divexact(X11.scale(4), Polynomial.constant(-2)) == X11.scale(-2)
    assert divexact(X21 + one, X21.scale(2) + X22) is None
    assert divexact(X11 * X21 + one, X21) is None
    assert divexact(X11, X21) is None
    assert divexact(zero, X21) == zero == divexact(zero, Polynomial.constant(3))
    with pytest.raises(ValueError, match="^a divisor must be constant or linear$"):
        divexact(X21, X11 * X21 + one)


def test_support_uses_print_order():
    """Polynomials list their monomials the way poly_text prints them."""
    p = X21 + Polynomial.one()
    assert [mono_pairs(m) for m in p.support()] == [(((2, 1), 1),), ()]
    assert [(mono_pairs(m), c) for m, c in p.sorted_items()] == [
        ((((2, 1), 1),), Fraction(1)),
        ((), Fraction(1)),
    ]
    assert repr(p) == "x[2][1] + 1"


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
    lin = random_linear(rng)
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
    offsets = {(2, 1): Fraction(-1, 2), (1, 1): Fraction(2), (3, 2): Fraction(5, 3)}
    moved = {SYM[v]: SYM[v] - sympy.Rational(c.numerator, c.denominator) for v, c in offsets.items()}
    check(f.subs_offsets(offsets), F.subs(moved, simultaneous=True))
    point = {v: Fraction(2 * i - 3, 7 + i) for i, v in enumerate(VARS)}
    value = F.subs({SYM[v]: sympy.Rational(c.numerator, c.denominator) for v, c in point.items()})
    assert f.evaluate(point) == Fraction(int(sympy.numer(value)), int(sympy.denom(value)))
    # exact division by a linear divisor, also with fractional content
    for divisor in (lin, lin.scale(Fraction(6, 5))):
        q = divexact(f * divisor, divisor)
        assert q == f
        assert_int_form(q)
    L = to_sympy(lin)
    q, r = sympy.div(F * L + 1, L, *SYM.values(), domain=sympy.QQ)
    inexact = divexact(f * lin + Polynomial.one(), lin)
    if r == 0:
        check(inexact, q)
    else:
        assert inexact is None


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
    offs = {(2, 1): Fraction(-3, 2), (1, 1): Fraction(1)}
    point = {v: Fraction(i + 2, 7) for i, v in enumerate(VARS)}
    shifted_point = {v: point[v] - offs.get(v, 0) for v in VARS}
    assert f.subs_offsets(offs).evaluate(point) == f.evaluate(shifted_point)
