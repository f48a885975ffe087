import random
from fractions import Fraction

import pytest

from gtsingular import ratfun
from gtsingular.poly import Polynomial, divexact
from gtsingular.ratfun import PoleError, RationalFunction, multiply_by_linear
from gtsingular.textform import rf_text
from tests_helpers import VARS3, random_poly, random_rf

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
    lhs = ONE / (z1 * (z1 - ONE)) + ONE / (z1 * (z1 + ONE))
    rhs = RationalFunction.constant(2) / ((z1 - ONE) * (z1 + ONE))
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
    g = random_rf(rng)
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
    pt = {v: Fraction(rng.randint(1, 40), rng.randint(7, 13)) for v in f.variables() + g.variables()}
    pt = {v: pt.get(v, Fraction(1, 9)) for v in set(f.variables()) | set(g.variables())}
    try:
        lhs = (f * g).evaluate(pt)
        rhs = f.evaluate(pt) * g.evaluate(pt)
        lhs2 = (f + g).evaluate(pt)
        rhs2 = f.evaluate(pt) + g.evaluate(pt)
    except PoleError:
        return
    assert lhs == rhs and lhs2 == rhs2


def test_derivative_quotient_rule():
    f = X11 / (X21 - X22)
    d = f.derivative((2, 1))
    assert d == -X11 / ((X21 - X22) * (X21 - X22))


def test_pow_negative():
    z1 = X21 - X22
    assert z1**-2 == ONE / (z1 * z1)


def assert_canonical(f):
    """A forms-path value: sorted monic linear forms, none dividing num."""
    forms = f.forms
    assert forms == tuple(sorted(forms, key=lambda t: sorted(t[0].terms.items())))
    assert len({form for form, _ in forms}) == len(forms)
    for form, e in forms:
        assert e > 0 and ratfun._is_linear(form) and form.leading_coeff() == 1
        assert divexact(f.num, form) is None
    assert f.den.leading_coeff() == 1


def assert_same(fast, slow):
    assert fast == slow and slow == fast
    assert fast.num == slow.num and fast.den == slow.den
    assert rf_text(fast) == rf_text(slow)
    assert hash(fast) == hash(slow)
    if fast.forms is not None:
        assert_canonical(fast)


def random_linear(rng):
    while True:
        p = random_poly(rng, max_terms=3, max_deg=1, zero_ok=False)
        if ratfun._is_linear(p):
            return p


def two_paths(rng):
    """f / l twice, for a random_rf(rng) value f with a linear denominator:
    with the denominator kept as forms, and given as the expanded product
    of the two forms, which takes the gcd path."""
    f = random_rf(rng)
    while f.is_polynomial():
        f = random_rf(rng)
    lin = random_linear(rng)
    fast = f / RationalFunction.from_poly(lin)
    slow = RationalFunction(fast.num, fast.den)
    assert (slow.forms is None) == (len(fast.forms) > 1 or fast.forms[0][1] > 1)
    return fast, slow


@pytest.mark.parametrize("seed", range(12))
def test_forms_path_matches_gcd_path(seed):
    rng = random.Random(700 + seed)
    (f, f_slow), (g, g_slow) = two_paths(rng), two_paths(rng)
    assert f.forms is not None and g.forms is not None
    assert_same(f, f_slow)
    assert_same(f + g, f_slow + g_slow)
    assert_same(f - g, f_slow - g_slow)
    assert_same(f * g, f_slow * g_slow)
    assert_same(f + g, f + g_slow)
    assert_same(f * g, f_slow * g)
    for var in VARS3:
        assert_same(f.derivative(var), f_slow.derivative(var))
    offsets = {(2, 1): Fraction(1), (1, 1): Fraction(-2), (3, 2): Fraction(1, 2)}
    assert_same(f.subs_offsets(offsets), f_slow.subs_offsets(offsets))
    for a, b in [((2, 1), (2, 2)), ((3, 1), (3, 3)), ((1, 1), (3, 2))]:
        assert_same(f.swap_vars(a, b), f_slow.swap_vars(a, b))
    assert_same(f**0, f_slow**0)
    assert_same(f**2, f_slow**2)
    assert_same(f**-1, f_slow**-1)
    for lin in (random_linear(rng), f.forms[0][0].scale(3)):
        assert_same(f / RationalFunction.from_poly(lin), f_slow / RationalFunction.from_poly(lin))
        assert_same(multiply_by_linear(f, lin), multiply_by_linear(f_slow, lin))
    pt = {v: Fraction(rng.randint(1, 40), rng.randint(7, 13)) for v in VARS3}
    try:
        value = f_slow.evaluate(pt)
    except PoleError:
        with pytest.raises(PoleError):
            f.evaluate(pt)
    else:
        assert f.evaluate(pt) == value


def test_two_paths_cover_both_representations():
    rng = random.Random(700)
    pairs = [two_paths(rng) for _ in range(24)]
    assert sum(slow.forms is None for _, slow in pairs) >= 20


def test_cancellation_on_forms_path():
    z1 = X21 - X22
    inv = [ONE / lin for lin in (z1, z1 + ONE, z1 - ONE, X11 - X21)]
    assert all(f.forms is not None for f in inv)
    f = z1 * (z1 + ONE) * inv[1] * inv[3]
    assert f.forms == (((X11 - X21).num, 1),) and f == z1 / (X11 - X21)
    g = inv[0] * inv[0] + X11 * inv[0]
    assert g.forms == ((z1.num, 2),) and (g * z1 * z1).is_polynomial()
    assert (inv[0] - inv[0]).is_zero()
    # z1 is shared with equal multiplicity, and cancels out of the sum
    h = inv[0] * inv[1] + inv[0] * inv[2]
    assert h.forms == (((z1 - ONE).num, 1), ((z1 + ONE).num, 1))
    assert h == RationalFunction.constant(2) / ((z1 + ONE) * (z1 - ONE))


def test_zero_residue_without_divisibility():
    """A numerator that vanishes at the test point of a form it is not
    divisible by: the exact division decides, and the form stays."""
    form = Polynomial.variable(1, 1) - Polynomial.variable(2, 1)
    a = ratfun._COORDS[(2, 1)]
    num = Polynomial.variable(2, 1) - Polynomial.constant(a)
    assert ratfun._residue(num, form) == 0
    assert divexact(num, form) is None
    f = RationalFunction(num, form)
    assert f.num == num and f.forms == ((form, 1),) and f.den == form
    # a coefficient denominator divisible by the prime also falls through
    # to the exact division, in the numerator or in the form
    big = Fraction(1, ratfun._P)
    assert ratfun._residue(num.scale(big), form) is None
    assert RationalFunction(form.scale(big), form) == RationalFunction.constant(big)
    odd_form = Polynomial.variable(1, 1) + Polynomial.variable(2, 1).scale(big)
    assert ratfun._residue(num, odd_form) is None
    assert RationalFunction(num, odd_form).forms == ((odd_form, 1),)


def test_forms_path_runs_no_gcd(monkeypatch):
    """Generator images, their brackets and module actions keep every
    denominator factored."""
    from gtsingular.distributions import act_lie
    from gtsingular.gtformulas import verify_homomorphism
    from gtsingular.sparse import BasisVec
    from gtsingular.tableau import Shift, canonical_context

    def no_gcd(f, g):
        raise AssertionError("poly_gcd called on the forms path")

    monkeypatch.setattr(ratfun, "poly_gcd", no_gcd)
    assert verify_homomorphism(3)["ok"]
    ctx = canonical_context()
    for gen in [(1, 3), (3, 1), (2, 3), (3, 2), (2, 2)]:
        act_lie(ctx, gen, BasisVec("D2", Shift.generator(2, 1)))
        act_lie(ctx, gen, BasisVec("D1", Shift.identity()))


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


def test_zero_and_constant_guards():
    zero = RationalFunction.zero()
    z1 = (X21 - X22).num
    assert multiply_by_linear(zero, z1) is zero
    assert RationalFunction.constant(Fraction(3, 4)).constant_value() == Fraction(3, 4)
    with pytest.raises(ValueError, match="not constant"):
        (ONE / (X21 - X22)).constant_value()
    with pytest.raises(ValueError, match="not constant"):
        X11.constant_value()
