import random
from fractions import Fraction

import pytest
import sympy

from gtsingular import poly, ratfun
from gtsingular.gtformulas import phi_general
from gtsingular.poly import Polynomial, divexact
from gtsingular.ratfun import PoleError, RationalFunction, multiply_by_linear
from gtsingular.tableau import positions
from gtsingular.textform import rf_text
from tests_helpers import VARS3, assert_canonical, random_poly, random_rf, rf_derivative, to_sympy

X11 = RationalFunction.variable(1, 1)
X21 = RationalFunction.variable(2, 1)
X22 = RationalFunction.variable(2, 2)
ONE = RationalFunction.one()


def test_additive_inverse():
    assert (X11 + (-X11)).is_zero()


def test_multiplicative_inverse():
    z1 = X21 - X22
    assert (ONE / z1) * z1 == ONE


def test_partial_fraction_identity():
    z1 = X21 - X22
    lhs = (ONE / z1) * (ONE / (z1 - ONE)) + (ONE / z1) * (ONE / (z1 + ONE))
    rhs = RationalFunction.constant(2) * (ONE / (z1 - ONE)) * (ONE / (z1 + ONE))
    assert lhs == rhs
    # independent cross-multiplication check, no reduction involved
    assert lhs.num * rhs.den == rhs.num * lhs.den


def test_div_by_zero_function():
    with pytest.raises(ZeroDivisionError):
        X11 / RationalFunction.zero()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.one(), Polynomial.zero())


def test_canonical_invariants():
    f = RationalFunction(
        (Polynomial.variable(2, 1) - Polynomial.variable(2, 2)) * Polynomial.variable(1, 1),
        (Polynomial.variable(2, 1) - Polynomial.variable(2, 2)).scale(Fraction(3)),
    )
    assert f == X11 / RationalFunction.constant(3)
    assert f.den == Polynomial.one()
    g = ONE / (X21.scale(2))
    assert g.den.leading_coeff() == 1  # monic denominator


@pytest.mark.parametrize("seed", range(15))
def test_normalize_soundness(seed):
    rng = random.Random(300 + seed)
    f = random_rf(rng)
    # a numerator of degree at most 1, so that g has a reciprocal
    g = random_rf(rng, max_deg=1)
    if g.is_zero():
        g = ONE
    assert f * g / g == f


@pytest.mark.parametrize("seed", range(10))
def test_field_axioms(seed):
    rng = random.Random(400 + seed)
    f, g, h = (random_rf(rng) for _ in range(3))
    assert (f + g) * h == f * h + g * h
    assert f + (g + h) == (f + g) + h
    assert f * (g * h) == (f * g) * h


def test_eval_examples():
    p = {v: Fraction(0) for v in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]}
    p[(2, 1)] = Fraction(1, 2)
    p[(2, 2)] = Fraction(1, 3)
    assert (X21 - X22).evaluate(p) == Fraction(1, 6)
    q = dict(p)
    q[(2, 2)] = Fraction(1, 2)
    with pytest.raises(PoleError):
        (ONE / (X21 - X22)).evaluate(q)
    assert RationalFunction.constant(Fraction(7, 3)).evaluate(p) == Fraction(7, 3)


@pytest.mark.parametrize("seed", range(10))
def test_eval_is_homomorphism(seed):
    rng = random.Random(500 + seed)
    f = random_rf(rng)
    g = random_rf(rng)
    pt = {v: Fraction(rng.randint(1, 40), rng.randint(7, 13)) for v in VARS3}
    try:
        lhs = (f * g).evaluate(pt)
        rhs = f.evaluate(pt) * g.evaluate(pt)
        lhs2 = (f + g).evaluate(pt)
        rhs2 = f.evaluate(pt) + g.evaluate(pt)
    except PoleError:
        return
    assert lhs == rhs and lhs2 == rhs2


def test_pow_negative():
    z1 = X21 - X22
    assert z1**-2 == (ONE / z1) * (ONE / z1)


def random_linear(rng):
    while True:
        p = random_poly(rng, max_terms=3, max_deg=1, zero_ok=False)
        if ratfun._is_linear(p):
            return p


def with_a_form(rng):
    """f / l for a random_rf(rng) value f with a linear denominator and a
    random linear l: a denominator of one or two forms."""
    f = random_rf(rng)
    while f.is_polynomial():
        f = random_rf(rng)
    return f / RationalFunction.from_poly(random_linear(rng))


def sympy_rf(f):
    return to_sympy(f.num) / to_sympy(f.den)


def sym(v):
    return sympy.Symbol("x_%d_%d" % v)


def rat(c):
    return sympy.Rational(c.numerator, c.denominator)


def assert_matches_sympy(result, expr):
    """result is canonical, its numerator and denominator are coprime, and
    its value is sympy.cancel(expr), compared by cross-multiplication."""
    assert_canonical(result)
    num, den = to_sympy(result.num), to_sympy(result.den)
    assert not sympy.gcd(num, den).free_symbols
    n, d = sympy.fraction(sympy.cancel(expr))
    assert sympy.expand(num * d - n * den) == 0


@pytest.mark.parametrize("seed", range(12))
def test_forms_path_matches_sympy(seed):
    """Each operation on seeded values with one or two forms in the
    denominator, against sympy's cancelled form of the same expression."""
    rng = random.Random(700 + seed)
    f, g = with_a_form(rng), with_a_form(rng)
    # a numerator of degree at most 1, so that h has a reciprocal
    h = over(random_linear(rng), random_linear(rng))
    sf, sg, sh = sympy_rf(f), sympy_rf(g), sympy_rf(h)
    assert_matches_sympy(f, sf)
    assert_matches_sympy(f + g, sf + sg)
    assert_matches_sympy(f - g, sf - sg)
    assert_matches_sympy(f * g, sf * sg)
    assert_matches_sympy(-f, -sf)
    assert_matches_sympy(f.scale(Fraction(-3, 2)), sf * sympy.Rational(-3, 2))
    for var in VARS3:
        # f**2 has forms of multiplicity 2
        for u, su in ((f, sf), (f**2, sf**2)):
            assert_matches_sympy(rf_derivative(u, var), sympy.diff(su, sym(var)))
    offsets = {(2, 1): Fraction(-1), (1, 1): Fraction(2), (3, 2): Fraction(-1, 2)}
    moved = {sym(v): sym(v) - rat(c) for v, c in offsets.items()}
    assert_matches_sympy(f.subs_offsets(offsets), sf.subs(moved, simultaneous=True))
    for a, b in [((2, 1), (2, 2)), ((3, 1), (3, 3)), ((1, 1), (3, 2))]:
        swapped = sf.subs({sym(a): sym(b), sym(b): sym(a)}, simultaneous=True)
        assert_matches_sympy(f.swap_vars(a, b), swapped)
    assert_matches_sympy(f**0, sympy.Integer(1))
    assert_matches_sympy(f**2, sf**2)
    assert_matches_sympy(h**-1, 1 / sh)
    assert_matches_sympy(h**-2, sh**-2)
    assert_matches_sympy(f / h, sf / sh)
    for lin in (random_linear(rng), next(iter(f.forms)).scale(3)):
        assert_matches_sympy(f / RationalFunction.from_poly(lin), sf / to_sympy(lin))
        assert_matches_sympy(multiply_by_linear(f, lin), sf * to_sympy(lin))
    pt = {v: Fraction(rng.randint(1, 40), rng.randint(7, 13)) for v in VARS3}
    at = {sym(v): rat(c) for v, c in pt.items()}
    if sympy.fraction(sympy.cancel(sf))[1].subs(at) == 0:
        with pytest.raises(PoleError):
            f.evaluate(pt)
    else:
        value = sf.subs(at)
        assert f.evaluate(pt) == Fraction(int(value.p), int(value.q))


def test_evaluate_matches_sympy_and_raises_at_a_form():
    """One integer pass over the numerator and forms of multiplicity 1 and
    2, at a point whose coordinates have different denominators, gives
    sympy's value and reads only the coordinates it uses; a vanishing form
    raises at either multiplicity."""
    x21, x22, x31 = (Polynomial.variable(*v) for v in [(2, 1), (2, 2), (3, 1)])
    l1 = x21 - x22 + Polynomial.constant(Fraction(1, 2))
    l2 = x21 + x31.scale(3) - Polynomial.one()
    num = (x21 * x22 * x31).scale(Fraction(2, 7)) + x22 - Polynomial.constant(5)
    f = over(num, l1) * over(Polynomial.one(), l2) ** 2
    assert f.forms and sorted(f.forms.values()) == [1, 2]
    pt = {(1, 1): Fraction(4), (2, 1): Fraction(1, 3), (2, 2): Fraction(-5, 4),
          (3, 1): Fraction(2, 11), (3, 2): Fraction(0), (3, 3): Fraction(7, 2)}
    at = {sym(v): rat(c) for v, c in pt.items()}
    value = sympy_rf(f).subs(at)
    assert f.evaluate(pt) == Fraction(int(value.p), int(value.q))
    # only the positions num and the forms use are read
    used = {v: pt[v] for v in [(2, 1), (2, 2), (3, 1)]}
    assert f.evaluate(used) == f.evaluate({**used, (0, 0): Fraction(1, 9)}) == f.evaluate(pt)
    # l1 = 0 at (2,1) = 1/4, (2,2) = 3/4; l2 = 0 at (2,1) = 1, (3,1) = 0
    for zero in ({(2, 1): Fraction(1, 4), (2, 2): Fraction(3, 4)},
                 {(2, 1): Fraction(1), (3, 1): Fraction(0)}):
        with pytest.raises(PoleError):
            f.evaluate({**pt, **zero})


def test_swap_vars_units_match_sympy():
    """A swap that leaves the unit -1 (x21 - x22 + 1 under (2,1) <-> (2,2),
    at multiplicity 1 and 3) and one that leaves a non-unit leading
    coefficient (x11 + 2 x21 under (1,1) <-> (2,1) is 2 (x11 + x21/2))."""
    x11, x21, x22 = (Polynomial.variable(*v) for v in [(1, 1), (2, 1), (2, 2)])
    num = x11 * x22 + Polynomial.constant(Fraction(3, 5))
    flip = x21 - x22 + Polynomial.one()
    for f, a, b in [(over(num, flip), (2, 1), (2, 2)),
                    (over(num, flip) ** 3, (2, 1), (2, 2)),
                    (over(num, x11 + x21.scale(2)), (1, 1), (2, 1))]:
        swapped = sympy_rf(f).subs({sym(a): sym(b), sym(b): sym(a)}, simultaneous=True)
        assert_matches_sympy(f.swap_vars(a, b), swapped)


def test_a_non_linear_denominator_raises():
    """The constructor takes a constant or linear den; any other den, the
    reciprocal of a numerator of degree 2 or more, a division by such a
    function and its negative powers raise the same ValueError."""
    x11, x21 = Polynomial.variable(1, 1), Polynomial.variable(2, 1)
    quadratic = x11 * x21 + Polynomial.one()
    square = RationalFunction.from_poly(x11 - x21) ** 2
    for den in (quadratic, (x11 - x21) ** 2):
        for num in (Polynomial.one(), Polynomial.zero(), x11 * quadratic):
            with pytest.raises(ValueError, match=ratfun._NOT_LINEAR):
                RationalFunction(num, den)
    for f in (RationalFunction.from_poly(quadratic), square, square / (X11 + X22)):
        with pytest.raises(ValueError, match=ratfun._NOT_LINEAR):
            f.reciprocal()
        with pytest.raises(ValueError, match=ratfun._NOT_LINEAR):
            X11 / f
        for k in (1, 2):
            with pytest.raises(ValueError, match=ratfun._NOT_LINEAR):
                f ** -k


@pytest.mark.parametrize("c", [Fraction(1), Fraction(-3, 2)])
def test_constant_factor_only_scales(monkeypatch, c):
    """A constant factor on either side scales the other numerator: no
    residue test runs."""
    rng = random.Random(900)
    fs = [with_a_form(rng) for _ in range(8)]
    want = [over(f.num.scale(c), *(form for form, e in f.forms.items() for _ in range(e)))
            for f in fs]
    const = RationalFunction.constant(c)

    def refuse(*args):
        raise AssertionError("a constant factor ran a residue test")

    monkeypatch.setattr(ratfun, "_residue", refuse)
    for f, w in zip(fs, want):
        assert const * f == w and f * const == w
        assert_canonical(const * f)


def test_cancellation_on_forms_path():
    z1 = X21 - X22
    inv = [ONE / lin for lin in (z1, z1 + ONE, z1 - ONE, X11 - X21)]
    f = z1 * (z1 + ONE) * inv[1] * inv[3]
    assert f.forms == {(X11 - X21).num: 1} and f == z1 / (X11 - X21)
    g = inv[0] * inv[0] + X11 * inv[0]
    assert g.forms == {z1.num: 2} and (g * z1 * z1).is_polynomial()
    assert (inv[0] - inv[0]).is_zero()
    # z1 is shared with equal multiplicity, and cancels out of the sum
    h = inv[0] * inv[1] + inv[0] * inv[2]
    assert h.forms == {(z1 - ONE).num: 1, (z1 + ONE).num: 1}
    assert h == RationalFunction.constant(2) * inv[1] * inv[2]


def test_zero_residue_without_divisibility():
    """A numerator that vanishes at the test point of a form it is not
    divisible by: the exact division decides, and the form stays."""
    form = Polynomial.variable(1, 1) - Polynomial.variable(2, 1)
    a = ratfun._COORDS[(2, 1)]
    num = Polynomial.variable(2, 1) - Polynomial.constant(a)
    assert ratfun._residue(num, form) == 0
    assert divexact(num, form) is None
    f = RationalFunction(num, form)
    assert f.num == num and f.forms == {form: 1} and f.den == form
    # a coefficient denominator divisible by the prime also falls through
    # to the exact division, in the numerator or in the form
    big = Fraction(1, ratfun._P)
    assert ratfun._residue(num.scale(big), form) is None
    assert RationalFunction(form.scale(big), form) == RationalFunction.constant(big)
    odd_form = Polynomial.variable(1, 1) + Polynomial.variable(2, 1).scale(big)
    assert ratfun._residue(num, odd_form) is None
    assert RationalFunction(num, odd_form).forms == {odd_form: 1}


@pytest.mark.parametrize("k", [2, 3])
def test_test_point_solves_for_the_graded_lex_leading_variable(k):
    """In x[k][1] - x[k][k] + m the native largest monomial is x[k][k],
    whose coefficient is -1; the test point solves for x[k][1], whose
    coefficient is 1, and lies on form = 0."""
    rng = random.Random(40 + k)
    for m in (0, 1, -3, Fraction(5, 2)):
        form = Polynomial.variable(k, 1) - Polynomial.variable(k, k) + Polynomial.constant(m)
        assert Fraction(form.terms[max(form.terms)], form.den) == -1 and form.leading_coeff() == 1
        xs = ratfun._test_point(form)
        assert xs[poly._SHIFT[(k, k)]] == ratfun._COORDS[(k, k)]
        assert poly._int_eval(form.terms, xs) % ratfun._P == 0
        p = random_poly(rng, zero_ok=False)
        assert ratfun._residue(form * p, form) == 0
        assert RationalFunction(form * p, form) == RationalFunction.from_poly(p)


def test_is_linear_reads_the_top_degree():
    """x[1][1]^2 + x[2][1] has degree 2, though its natively largest
    monomial x[2][1] has degree 1: the denominator is not a linear form."""
    p = Polynomial.variable(1, 1) ** 2 + Polynomial.variable(2, 1)
    assert not ratfun._is_linear(p)
    with pytest.raises(ValueError, match=ratfun._NOT_LINEAR):
        RationalFunction(Polynomial.one(), p)


def test_arithmetic_with_other_types_is_not_implemented():
    """Each binary operator declines a non-RationalFunction operand, so
    Python raises TypeError instead of mixing types."""
    f = X11 / (X21 - X22)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(f, op)(2) is NotImplemented
        assert getattr(f, op)(X11.num) is NotImplemented
    with pytest.raises(TypeError):
        f + 1
    with pytest.raises(TypeError):
        f / X11.num


def test_multiply_by_linear_lowers_a_listed_form():
    """A listed form loses one multiplicity, and leaves the map at zero;
    the linear factor's leading coefficient moves to the numerator."""
    z1, w = X21 - X22, X11 - X21
    f = X11 / z1 / z1 / w
    g = multiply_by_linear(f, z1.num.scale(3))
    assert g.forms == {z1.num: 1, w.num: 1} and g == RationalFunction.constant(3) * X11 / z1 / w
    h = multiply_by_linear(g, z1.num)
    assert h.forms == {w.num: 1} and h == RationalFunction.constant(3) * X11 / w
    assert f.forms == {z1.num: 2, w.num: 1}


def test_zero_and_constant_guards():
    zero = RationalFunction.zero()
    z1 = (X21 - X22).num
    assert multiply_by_linear(zero, z1) is zero
    assert RationalFunction.constant(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError, match="not constant"):
        (ONE / (X21 - X22)).constant_value()
    with pytest.raises(ValueError, match="not constant"):
        X11.constant_value()


# -- the residue memo -------------------------------------------------------


def assert_memo_exact(f):
    """Every entry of f's residue memo is the residue of f.num itself."""
    for form, r in f._memo().items():
        assert r == ratfun._residue(f.num, form), (rf_text(f), form)


def with_forms(rng):
    f = random_rf(rng)
    while not f.forms:
        f = random_rf(rng)
    return f


def over(num, *lins):
    """num / prod(lins), built on the forms path."""
    out = RationalFunction.from_poly(num)
    for lin in lins:
        out = out / RationalFunction.from_poly(lin)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_residue_memo_matches_evaluation(seed):
    """Sums, differences and products derive their memos from their
    operands'; negations and scales keep none and evaluate on first use.
    Each entry equals the residue evaluated on the result's own
    numerator."""
    rng = random.Random(1100 + seed)
    f, g = with_forms(rng), with_forms(rng)
    (l,) = f.forms
    same = over(random_poly(rng, zero_ok=False), l)
    l2, m, n = (ratfun._monic_form(random_linear(rng))[1] for _ in range(3))
    c = random_poly(rng, zero_ok=False)
    q = random_poly(rng, zero_ok=False)
    values = [
        f + same, f - same, same + f,  # equal forms
        f + g, f - g, g - f, (f + g) + same, (f * g) + f,  # different forms
        -f, -(f + g), f.scale(Fraction(-3, 2)), (f * g).scale(Fraction(5, 7)),
        f * g, f * same, (f + g) * (f - g), f * f,
        # a shared form divides: l2 cancels out of the lcm sum, l out of
        # the equal-forms sums, once and twice over
        over(m * c + l2, l2, m) + over(l2 - c * n, l2, n),
        same + over(q * l - same.num, l),
        over(q.scale(3), l, l) + over(q * l - q.scale(3), l, l),
        over(l * q, m) * over(c, l),
    ]
    for h in values:
        if h.forms:
            assert_memo_exact(h)
    assert values[16] == over(n + m, m, n)
    assert values[17] == RationalFunction.from_poly(q)
    assert values[18] == over(q, l)
    assert values[19] == over(q * c, m)


def spy_on(monkeypatch, name):
    """Replace ratfun.<name> by a wrapper that records its arguments."""
    calls = []
    real = getattr(ratfun, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ratfun, name, spy)
    return calls


def test_sum_evaluates_only_the_new_terms(monkeypatch):
    """Adding terms to an accumulated sum, over equal and over different
    forms: no residue test evaluates a sum's numerator."""
    l, m = (Polynomial.variable(2, 1) - Polynomial.variable(3, i) for i in (1, 2))
    rng = random.Random(1200)
    # built again by a substitution, so each term starts with no memo
    terms = [over(random_poly(rng, zero_ok=False), *lins).subs_offsets({})
             for lins in [(l,), (l,), (m,), (l, m), (l,), (m, m), (l, m, m)]]
    evaluated = spy_on(monkeypatch, "_residue")
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    assert acc.forms == {l: 1, m: 2}
    assert evaluated and all(any(p == t.num for t in terms) for p, _ in evaluated)
    assert_memo_exact(acc)


def test_derived_zero_residue_runs_the_exact_division(monkeypatch):
    """A sum whose derived residue is 0 although the form does not divide
    it: divexact decides, and the form stays."""
    form = Polynomial.variable(1, 1) - Polynomial.variable(2, 1)
    a = ratfun._COORDS[(2, 1)]
    f = RationalFunction(Polynomial.variable(2, 1), form)
    g = RationalFunction(Polynomial.constant(-a), form)
    assert f._memo()[form] and g._memo()[form]
    calls = spy_on(monkeypatch, "divexact")
    h = f + g
    want = Polynomial.variable(2, 1) - Polynomial.constant(a)
    assert calls == [(want, form)]
    assert h.num == want and h.forms == {form: 1} and h._res == {form: 0}
    assert_memo_exact(h)


def test_residue_memo_with_prime_denominators(monkeypatch):
    """A numerator denominator divisible by _P: the entry is None, the
    exact division runs, and no entry is derived from it.  Scaling and
    negation derive no memo."""
    form = Polynomial.variable(1, 1) - Polynomial.variable(2, 1)
    big = Fraction(1, ratfun._P)
    num = Polynomial.variable(3, 1).scale(big) + Polynomial.one()
    f = RationalFunction(num, form)
    assert f.forms == {form: 1} and f._res == {form: None}
    g = RationalFunction(Polynomial.variable(2, 2), form)
    calls = spy_on(monkeypatch, "divexact")
    h = f + g
    assert calls == [(h.num, form)]
    assert h._res == {form: None} and h.forms == {form: 1}
    k = f + RationalFunction(Polynomial.variable(2, 2), Polynomial.variable(3, 3))
    assert_memo_exact(k)
    # a scaled function keeps no memo, also for a multiple of _P (or its inverse)
    assert f.scale(big)._res is None and g.scale(ratfun._P)._res is None
    assert f.scale(big) == RationalFunction(num.scale(big), form)
    for v in (h, k, -f, f.scale(3)):
        assert_memo_exact(v)


def test_a_sum_multiplies_by_no_empty_cofactor(monkeypatch):
    """Equal forms, and forms that contain the other side's: the side whose
    cofactor is empty enters the sum's numerator as it is."""
    l, m = (Polynomial.variable(2, 1) - Polynomial.variable(3, i) for i in (1, 2))
    x, y = Polynomial.variable(1, 1), Polynomial.variable(3, 3)
    f, g, h = over(x, l), over(y, l), over(y, l, m)
    equal, contained = over(x + y, l), over(x * m + y, l, m)
    calls = []
    real = Polynomial.__mul__

    def spy(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(Polynomial, "__mul__", spy)
    assert f + g == equal
    assert calls == []
    assert f + h == contained
    assert calls and all(q != Polynomial.one() for _, q in calls)


def test_entry_dropped_when_the_divisor_vanishes_at_its_point(monkeypatch):
    """Dividing by a form that vanishes at another form's test point drops
    that form's entry; it is evaluated again, on the quotient."""
    g = Polynomial.variable(1, 1) - Polynomial.variable(2, 1)
    f = Polynomial.variable(2, 2) - Polynomial.constant(ratfun._COORDS[(2, 2)])
    assert ratfun._residue(f, g) == 0 and ratfun._residue(g, f) != 0
    assert ratfun._divided({f: 0, g: 5}, f) == {}
    x = Polynomial.variable(1, 1)
    y = Polynomial.variable(3, 1)
    a, b = over(f * x + y, f, g), over(-y, f, g)
    evaluated = spy_on(monkeypatch, "_residue")
    h = a + b
    assert h.num == x and h.forms == {g: 1}
    assert h._residue_at(g) == ratfun._residue(x, g) != 0
    assert (x, g) in evaluated
    assert_memo_exact(h)


def test_memo_is_not_part_of_equality():
    """The same function with and without a memo (the residue memo, or
    the record of its numerator's factors): equal, with equal hashes.  So are
    functions built by different routes (products in other orders, a sum,
    a cancellation), whose forms dicts list the same forms in different
    orders or reach their multiplicities in different steps."""
    form = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
    num = Polynomial.variable(1, 1) * Polynomial.variable(3, 2)
    with_memo = RationalFunction(num, form)
    without = with_memo.subs_offsets({})
    assert with_memo._res and without._res is None
    assert with_memo == without and without == with_memo
    assert hash(with_memo) == hash(without)
    assert {with_memo: 1}[without] == 1
    image = next(iter(phi_general(3, 1, 3).terms.values()))
    bare = RationalFunction._make(image.num, image.forms)
    assert image._num_forms is not None and bare._num_forms is None
    assert image == bare and bare == image and hash(image) == hash(bare)
    assert {image: 1}[bare] == 1
    x11, x32 = (RationalFunction.from_poly(Polynomial.variable(*v)) for v in [(1, 1), (3, 2)])
    other = Polynomial.variable(3, 1) - Polynomial.variable(3, 2) + Polynomial.constant(2)
    f, g = RationalFunction(Polynomial.one(), form), RationalFunction(Polynomial.one(), other)
    routes = [
        f * f * g * x11,
        x11 * g * (f**2),
        x11 / RationalFunction.from_poly(form.scale(-3)) * (g * f) * RationalFunction.constant(-3),
        (f * g * x11 * (RationalFunction.one() + x32) - g * f * x11 * x32) * f,
        x11 * RationalFunction.from_poly(form) * f**3 * g,
    ]
    assert [list(r.forms) for r in routes[:2]] != [list(routes[0].forms)] * 2
    for r in routes:
        assert r == routes[0] and hash(r) == hash(routes[0]), r
    assert len(set(routes)) == 1


def test_only_scaling_and_automorphisms_keep_the_numerator_factors():
    """An image coefficient's numerator factors (`_num_forms`, set by
    `phi_general`) survive scaling and negation (test_skewring), a shift and
    a transposition, each form moved as `_shifted_form` and `_swapped_form`
    move it, and each copy's numerator expands to the transformed expanded
    one.  A coefficient built from image coefficients in any other way is
    expanded and carries none; a sum expands a factored operand first."""
    h, g = phi_general(3, 3, 2).terms.values()  # linear numerators
    k = next(iter(phi_general(3, 1, 3).terms.values()))
    assert all(f._num_forms is not None for f in (h, g, k))
    unit, forms = k._num_forms
    # a copy that keeps only the factors, whatever other tests expanded
    factored = RationalFunction._make(None, k.forms, None, k._num_forms)
    offsets = {(2, 1): Fraction(1), (3, 3): Fraction(-2)}
    moved = factored.subs_offsets(offsets)
    assert moved._num_forms == (unit, {ratfun._shifted_form(f, offsets): e for f, e in forms.items()})
    assert moved._num is None and moved.num == k.num.subs_offsets(offsets)
    for a, b in [((2, 1), (2, 2)), ((3, 1), (3, 3))]:
        swapped = factored.swap_vars(a, b)
        assert swapped._num is None and swapped._num_forms[1].keys() == {
            ratfun._swapped_form(f, a, b)[1] for f in forms
        }
        assert swapped.num == RationalFunction._make(k.num, k.forms).swap_vars(a, b).num
    z1 = Polynomial.variable(2, 1) - Polynomial.variable(2, 2)
    built = [
        h + g, h + h, h - g, k + X11, factored + X11, h * g, h * h, k * X11, h / g,
        k**1, k**2, h**-1, h.reciprocal(),
        RationalFunction(k.num, z1), multiply_by_linear(k, z1),
        multiply_by_linear(k, Polynomial.variable(1, 1)),
    ]
    for f in built:
        assert f._num_forms is None and f._num is not None, f
    assert built[4] == RationalFunction._make(k.num, k.forms) + X11


def poly_var(k, i):
    return Polynomial.variable(k, i)


def uncached_monic(p):
    """(lc, p / lc), computed afresh."""
    lc = p.leading_coeff()
    return lc, p.scale(1 / lc)


SWAPS = [((2, 1), (2, 2)), ((3, 1), (3, 3)), ((1, 1), (3, 2)), ((2, 2), (1, 1))]


@pytest.mark.parametrize("seed", range(10))
def test_form_transforms_match_the_uncached_computation(seed):
    """The cached shift and transposition of a seeded monic form equal the
    computations they replace, and a repeated call returns the same object."""
    rng = random.Random(900 + seed)
    form = ratfun._monic_form(random_linear(rng))[1]
    absent = [v for v in VARS3 if form.derivative(v).is_zero()]
    shifts = [{v: Fraction(-rng.randint(-4, 4), rng.randint(1, 3)) for v in rng.sample(VARS3, 3)}
              for _ in range(3)]
    shifts.append({v: Fraction(-1, 2) for v in absent})
    for offsets in shifts:
        moved = ratfun._shifted_form(form, offsets)
        assert moved == form.subs_offsets(offsets)
        assert ratfun._shifted_form(form, offsets) is moved
        assert ratfun._monic_form(form.subs_offsets(offsets))[1] is moved
    for a, b in SWAPS:
        lc, swapped = ratfun._swapped_form(form, a, b)
        assert (lc, swapped) == uncached_monic(form.swap_vars(a, b))
        assert ratfun._swapped_form(form, a, b)[1] is swapped


def test_shift_cache_reads_the_constant_the_shift_adds():
    """One form with den 6, shifted by Fraction offsets that move its
    constant by different amounts, and by offsets only on variables it
    lacks, which leave the form itself."""
    form = poly_var(2, 1) + poly_var(3, 1).scale(Fraction(1, 2)) - Polynomial.constant(Fraction(1, 3))
    assert form.den == 6 and ratfun._monic_form(form) == (1, form)
    form = ratfun._monic_form(form)[1]
    moved = []
    for offsets in [{(2, 1): Fraction(-2), (3, 1): Fraction(-1, 2)},
                    {(3, 1): Fraction(2, 3), (1, 1): Fraction(-5)},
                    {(2, 1): Fraction(-1, 7)},
                    {(2, 1): Fraction(1, 2), (3, 1): Fraction(-1)}]:
        moved.append(ratfun._shifted_form(form, offsets))
        assert moved[-1] == form.subs_offsets(offsets)
    # the constant moves by 9/4, -1/3, 1/7 and 0
    assert len(set(moved[:3])) == 3 and moved[3] is form
    assert ratfun._shifted_form(form, {(1, 1): Fraction(-3, 2), (3, 3): Fraction(1)}) is form
    f = RationalFunction(poly_var(1, 1), form)
    offsets = {(2, 1): Fraction(-2), (1, 1): Fraction(-1, 2)}
    assert f.subs_offsets(offsets) == RationalFunction(
        poly_var(1, 1) + Polynomial.constant(Fraction(1, 2)), form + Polynomial.constant(2))


def test_swap_that_moves_the_leading_variable_keeps_its_unit():
    """x21 - x22 + 1 under (2,1) <-> (2,2) is -(x21 - x22 - 1): the monic
    form changes and the unit -1 goes to the numerator."""
    form = poly_var(2, 1) - poly_var(2, 2) + Polynomial.one()
    flipped = poly_var(2, 1) - poly_var(2, 2) - Polynomial.one()
    lc, swapped = ratfun._swapped_form(form, (2, 1), (2, 2))
    assert lc == -1 and swapped == flipped
    assert ratfun._swapped_form(form, (3, 1), (3, 2)) == (1, form)
    f = RationalFunction(poly_var(1, 1), form)
    g = f.swap_vars((2, 1), (2, 2))
    assert g.num == -poly_var(1, 1) and g.forms == {flipped: 1}
    assert g.evaluate({(1, 1): 1, (2, 1): 3, (2, 2): 1}) == Fraction(1, -1)
    assert g.swap_vars((2, 1), (2, 2)) == f
    # a swap of two variables the form lacks leaves it as it is
    assert f.swap_vars((3, 1), (3, 2)) == RationalFunction(poly_var(1, 1), form)


def test_equal_forms_share_one_object():
    """Every forms-path form is the shared copy of its value, however it was
    built: from a scaled denominator, a shift, a transposition or a product."""
    a = poly_var(2, 1) - poly_var(3, 2) + Polynomial.constant(3)
    b = (poly_var(3, 2) - poly_var(2, 1) - Polynomial.constant(3)).scale(Fraction(-2, 5))
    shared = ratfun._monic_form(a)[1]
    assert ratfun._monic_form(b) == (Fraction(2, 5), shared)
    assert ratfun._monic_form(b)[1] is shared
    f = RationalFunction(poly_var(1, 1), b)
    assert next(iter(f.forms)) is shared
    back = f.subs_offsets({(2, 1): Fraction(-1)}).subs_offsets({(3, 2): Fraction(-1)})
    assert back == f and next(iter(back.forms)) is shared
    twice = f.swap_vars((2, 1), (3, 2)).swap_vars((2, 1), (3, 2))
    assert twice == f and next(iter(twice.forms)) is shared
    assert next(iter((f * f).forms)) is shared


def stored_both_ways(f):
    """Two copies of a factored f: one keeping only the numerator's factors,
    one keeping only the expanded numerator."""
    return (RationalFunction._make(None, f.forms, None, f._num_forms),
            RationalFunction._make(f.num, f.forms))


def sympy_pair(f):
    """f's numerator and denominator as sympy polynomials over QQ."""
    return tuple(sympy.Poly(to_sympy(p), *SYMBOLS, domain="QQ") for p in (f.num, f.den))


def sympy_equal(a, b):
    """Whether the fractions a = (n1, d1) and b = (n2, d2) of sympy
    polynomials, each in lowest terms, are equal: when d1 = c d2 and
    n1 = c n2 for one constant c."""
    (n1, d1), (n2, d2) = a, b
    c = d1.LC() / d2.LC()
    return d1 == d2.mul_ground(c) and n1 == n2.mul_ground(c)


def image_sample(n, count):
    """count image coefficients of order n drawn from the off-diagonal images
    whose path has at most three rows, seeded by n."""
    rng = random.Random(4100 + n)
    gens = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1) if 0 < abs(r - s) <= 3]
    out = []
    for r, s in rng.sample(gens, count):
        out.append(rng.choice(list(phi_general(n, r, s).terms.values())))
    return out


# a factored value whose forms a transposition of (2,1) and (2,2) leaves
# with units other than +-1, in the numerator and in the denominator
GENERAL = RationalFunction._make(
    None,
    {ratfun._monic_form(poly_var(2, 1) + poly_var(2, 2).scale(Fraction(1, 2)))[1]: 1,
     ratfun._monic_form(poly_var(3, 1) - poly_var(1, 1) + Polynomial.constant(2))[1]: 2},
    None,
    (Fraction(3, 2), {ratfun._monic_form(poly_var(2, 1) + poly_var(2, 2).scale(3))[1]: 2,
                      ratfun._monic_form(poly_var(1, 1) - poly_var(3, 3))[1]: 1}),
)
SYMBOLS = [sympy.Symbol(f"x_{k}_{i}") for k in range(1, 6) for i in range(1, k + 1)]
# one unit fraction per position up to order 5: no form x_a - x_b + m
# vanishes at the point they make
PRIMES = [11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67]


def transforms(n):
    """(name, transform of RationalFunction, the same on sympy (num, den)) at
    order n: scaling, negation, a shift, transpositions in row 2 and across
    rows, and the round trips that come back to the start."""
    x = {(k, i): sympy.Symbol(f"x_{k}_{i}") for k in range(1, n + 1) for i in range(1, k + 1)}
    off = {(2, 1): Fraction(2), (n, 1): Fraction(-1), (n - 1, 2): Fraction(3)}
    back = {v: -a for v, a in off.items()}
    pairs = [((2, 1), (2, 2)), ((1, 1), (n, n))]

    def sub(mapping):
        return lambda p: sympy.Poly(p.as_expr().subs(mapping, simultaneous=True), *SYMBOLS,
                                    domain="QQ")

    shift = sub({x[v]: x[v] - a for v, a in off.items()})
    swaps = [sub({x[a]: x[b], x[b]: x[a]}) for a, b in pairs]
    c = Fraction(-2, 3)
    return [
        ("id", lambda f: f, lambda nd: nd),
        ("scale", lambda f: f.scale(c), lambda nd: (nd[0] * sympy.Rational(-2, 3), nd[1])),
        ("neg", lambda f: -f, lambda nd: (-nd[0], nd[1])),
        ("scale -1", lambda f: f.scale(-1), lambda nd: (-nd[0], nd[1])),
        ("shift", lambda f: f.subs_offsets(off), lambda nd: tuple(map(shift, nd))),
        ("shift back", lambda f: f.subs_offsets(off).subs_offsets(back), lambda nd: nd),
        ("swap", lambda f: f.swap_vars(*pairs[0]), lambda nd: tuple(map(swaps[0], nd))),
        ("swap across", lambda f: f.swap_vars(*pairs[1]), lambda nd: tuple(map(swaps[1], nd))),
        ("swap twice", lambda f: f.swap_vars(*pairs[0]).swap_vars(*pairs[0]), lambda nd: nd),
        ("scale back", lambda f: f.scale(c).scale(1 / c), lambda nd: nd),
    ]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_both_numerator_forms_agree_with_sympy(n):
    """Image coefficients at order n, and a factored value whose
    transpositions leave units other than +-1, each stored with only its
    factors and with only its expanded numerator, then scaled, negated,
    shifted and transposed.  Every == between two results, factored or
    expanded on either side, answers as sympy does on their numerators and
    denominators, equal results hash alike, every result is sympy's
    transform of the start, and a factored result evaluates at a point,
    form by form, to the value of its expanded twin.  The == checks between
    factored results run before any of them is expanded, so they take the
    factored path.  A copy with its unit or one form's multiplicity changed
    compares unequal."""
    ts = transforms(n)
    for h in image_sample(n, 3) + ([GENERAL] if n == 3 else []):
        factored, expanded = stored_both_ways(h)
        start = sympy_pair(expanded)
        sym = [t_sym(start) for _, _, t_sym in ts]
        by_f = [t(factored) for _, t, _ in ts]
        by_e = [t(expanded) for _, t, _ in ts]
        assert all(f._num is None and f._num_forms is not None for f in by_f)
        assert all(e._num_forms is None for e in by_e)
        assert start[0].gcd(start[1]).is_ground
        want = {(i, j): sympy_equal(a, b) for i, a in enumerate(sym) for j, b in enumerate(sym)}
        # factored on both sides first, then mixed, which expands
        for left, right in [(by_f, by_f), (by_f, by_e), (by_e, by_f)]:
            for (i, j), equal in want.items():
                a, b = left[i], right[j]
                assert (a == b) is equal, (ts[i][0], ts[j][0])
                assert not equal or hash(a) == hash(b)
            if left is right:
                assert all(f._num is None for f in by_f)
        unit, forms = factored._num_forms
        form = next(iter(forms), ratfun._monic_form(poly_var(1, 1) - poly_var(2, 2))[1])
        controls = [
            RationalFunction._make(None, factored.forms, None, (2 * unit, forms)),
            RationalFunction._make(None, factored.forms, None,
                                   (unit, {**forms, form: forms.get(form, 0) + 1})),
        ]
        for bad in controls:
            assert bad != factored and factored != bad
            assert stored_both_ways(bad)[1] != factored and bad != expanded
        point = {v: Fraction(1, p) for v, p in zip(positions(n), PRIMES)}
        for (name, _, _), f, e, want_f in zip(ts, by_f, by_e, sym):
            assert sympy_equal(sympy_pair(f), want_f), name
            assert stored_both_ways(f)[0].evaluate(point) == e.evaluate(point), name
