import random
from fractions import Fraction

import pytest

from gtsingular import ratfun, suites
from gtsingular.gtformulas import phi_general
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.skewring import (
    RingElement,
    apply_to_function,
    is_at_most_one_singular,
    is_tau_invariant,
    ring_commutator,
    ring_mul_circ,
)
from gtsingular.tableau import Shift, canonical_context, shift_subst
from tests_helpers import random_poly, random_rf, regular_on_orbit

X11 = RationalFunction.variable(1, 1)
X21 = RationalFunction.variable(2, 1)
X22 = RationalFunction.variable(2, 2)
ONE = RationalFunction.one()
Z1 = X21 - X22

CTX = canonical_context()
S11 = Shift.generator(1, 1)
S21 = Shift.generator(2, 1)
S22 = Shift.generator(2, 2)


def random_ring_element(rng, max_support=3):
    terms = []
    for _ in range(rng.randint(0, max_support)):
        s = Shift(
            {
                (1, 1): rng.randint(-1, 1),
                (2, 1): rng.randint(-1, 1),
                (2, 2): rng.randint(-1, 1),
            }
        )
        terms.append((s, random_rf(rng)))
    return RingElement(terms)


def test_collects_like_terms():
    a = RingElement([(S11, X11), (S11, -X11)])
    assert a.is_zero()


def test_circ_example_row1():
    a = RingElement.term(X11, S11)
    prod = ring_mul_circ(a, a)
    expected = RingElement.term(X11 * (X11 - ONE), S11 * S11)
    assert prod == expected


def test_circ_unit():
    rng = random.Random(1)
    a = random_ring_element(rng)
    assert ring_mul_circ(a, RingElement.one()) == a
    assert ring_mul_circ(RingElement.one(), a) == a


def test_circ_singular_coefficient():
    a = RingElement.term(ONE / Z1, S21)
    prod = ring_mul_circ(a, a)
    assert shift_subst(Z1, S21) == Z1 - ONE
    assert prod == RingElement.term((ONE / Z1) * (ONE / (Z1 - ONE)), S21 * S21)


def test_star_unfolds():
    f, g = X11, X21 * X22
    rho = Shift({(2, 2): -1})
    lhs = ring_mul_circ(RingElement.term(g, rho), RingElement.term(f, S11))
    rhs = RingElement.term(g * shift_subst(f, rho), rho * S11)
    assert lhs == rhs


@pytest.mark.parametrize("seed", range(6))
def test_star_associative_via_circ(seed):
    rng = random.Random(600 + seed)
    a, b, c = (random_ring_element(rng, 2) for _ in range(3))
    # a*b = b o a; a*(b*c) = (c o b) o a and (a*b)*c = c o (b o a)
    assert ring_mul_circ(ring_mul_circ(c, b), a) == ring_mul_circ(c, ring_mul_circ(b, a))


def _nonzero_ring_element(rng):
    # random_ring_element draws zero about a third of the time
    while True:
        a = random_ring_element(rng)
        if a:
            return a


def _with_identity_term(rng, a):
    """a plus a nonzero coefficient on the identity shift, over a linear
    denominator."""
    num = random_poly(rng, max_terms=2, zero_ok=False)
    f = random_rf(rng) + RationalFunction.from_poly(num)
    out = a + RingElement.term(f, Shift.identity())
    assert Shift.identity() in out.terms
    return out


@pytest.mark.parametrize("seed", range(40))
def test_commutator_matches_two_products(seed):
    """The one-pass commutator against a o b - b o a from two full products.
    Identity-shift terms go on a (seeds 0 mod 4), on b (1 mod 4) or on both,
    so both factored branches and the identity-by-identity pair run."""
    rng = random.Random(2200 + seed)
    a, b = _nonzero_ring_element(rng), _nonzero_ring_element(rng)
    mode = seed % 4
    if mode != 1:
        a = _with_identity_term(rng, a)
    if mode != 0:
        b = _with_identity_term(rng, b)
    assert ring_commutator(a, b) == ring_mul_circ(a, b) - ring_mul_circ(b, a)


def test_commutator_diagonal_pairs_cost_one_scale(monkeypatch):
    """A pair with a shift-free side is factored: against a diagonal image
    fa - sb(fa) is a constant, so each term pair costs one product, a scale
    with no residue test, in either order.  Two shifted terms cost two
    products and their tests.  (Without the shortcut the benchmark's
    homomorphism round took about 4.5 times as long.)"""
    calls = {"mul": 0, "cancel": 0}
    mul, cancel = RationalFunction.__mul__, ratfun._cancel

    def counted_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    def counted_cancel(*args):
        calls["cancel"] += 1
        return cancel(*args)

    monkeypatch.setattr(RationalFunction, "__mul__", counted_mul)
    monkeypatch.setattr(ratfun, "_cancel", counted_cancel)
    # one term pair per term of E(1,3)'s image
    assert len(phi_general(3, 2, 2).terms) == 1 and len(phi_general(3, 1, 3).terms) == 2
    for x, y, products, tests in [
        ((2, 2), (1, 3), 2, 0),
        ((1, 3), (2, 2), 2, 0),
        ((1, 2), (2, 3), 4, 10),
    ]:
        a, b = phi_general(3, *x), phi_general(3, *y)
        calls.update(mul=0, cancel=0)
        ring_commutator(a, b)
        assert calls == {"mul": products, "cancel": tests}, (x, y)


@pytest.mark.parametrize("seed", range(6))
def test_ring_axioms_random(seed):
    rng = random.Random(700 + seed)
    a, b, c = (random_ring_element(rng, 2) for _ in range(3))
    assert ring_mul_circ(ring_mul_circ(a, b), c) == ring_mul_circ(a, ring_mul_circ(b, c))
    assert ring_mul_circ(a, b + c) == ring_mul_circ(a, b) + ring_mul_circ(a, c)
    assert ring_mul_circ(a + b, c) == ring_mul_circ(a, c) + ring_mul_circ(b, c)


def test_tau_action_examples():
    a = RingElement.term(ONE, S21)
    assert CTX.transpose(a) == RingElement.term(ONE, S22)
    half = Fraction(1, 1)
    b = RingElement([(S21, (ONE / Z1).scale(half)), (S22, -(ONE / Z1).scale(half))])
    assert CTX.transpose(b) == b
    rng = random.Random(13)
    c = random_ring_element(rng)
    assert CTX.transpose(CTX.transpose(c)) == c


@pytest.mark.parametrize("seed", range(5))
def test_tau_is_ring_automorphism(seed):
    """tau, and any same-row swap on order-4 elements, is a ring
    automorphism compatible with the action on functions."""
    rng = random.Random(800 + seed)
    a, b = random_ring_element(rng, 2), random_ring_element(rng, 2)
    lhs = CTX.transpose(ring_mul_circ(a, b))
    rhs = ring_mul_circ(CTX.transpose(a), CTX.transpose(b))
    assert lhs == rhs
    for _ in range(6):
        a, b = suites.random_ring_element(rng, 4), suites.random_ring_element(rng, 4)
        f = suites.random_rational(rng, 4)
        for p, q in [((2, 1), (2, 2)), ((3, 1), (3, 3)), ((3, 2), (3, 3)), ((4, 1), (4, 4))]:
            assert a.swap_vars(p, q).swap_vars(p, q) == a
            assert ring_mul_circ(a, b).swap_vars(p, q) == ring_mul_circ(
                a.swap_vars(p, q), b.swap_vars(p, q)
            )
            assert apply_to_function(a, f).swap_vars(p, q) == apply_to_function(
                a.swap_vars(p, q), f.swap_vars(p, q)
            )


def test_is_tau_invariant():
    assert is_tau_invariant(CTX, RingElement([(S21, ONE), (S22, ONE)]))
    half_z = (ONE / Z1).scale(Fraction(1, 2))
    sym = RingElement([(S21, half_z), (S22, -half_z)])
    assert is_tau_invariant(CTX, sym)
    assert not is_tau_invariant(CTX, RingElement.term(ONE, S21))


def test_scale_keeps_the_image_factors():
    """An image coefficient's numerator factors ride along through scale
    and negation, which scale only the numerators, with the unit times the
    scalar; a sum has none."""
    image = phi_general(3, 1, 3)
    assert image.scale(1) is image
    two_thirds = Fraction(2, 3)
    for c, scaled in [(-1, -image), (-1, image.scale(-1)), (two_thirds, image.scale(two_thirds))]:
        for sigma, h in image.terms.items():
            unit, forms = h._num_forms
            assert scaled.terms[sigma]._num_forms == (unit * c, forms)
    for h in (image + image).terms.values():
        assert h._num_forms is None


def test_is_at_most_one_singular():
    assert is_at_most_one_singular(CTX, RingElement.term(ONE / Z1, S21))
    assert not is_at_most_one_singular(CTX, RingElement.term(Z1**-2, S21))
    assert is_at_most_one_singular(
        CTX, RingElement.term(ONE / (Z1 - ONE), Shift.identity())
    )
    # the orbit condition is stricter: the same coefficient on sigma(2,1)
    # fails at its own translate, where z1 = 1
    a = RingElement.term(ONE / (Z1 - ONE), S21)
    assert is_at_most_one_singular(CTX, a)
    assert not regular_on_orbit(CTX, a)


def test_one_singular_reads_the_forms_of_z1_h_off_h(monkeypatch):
    """z1*h has h's forms with one power of z1's form cancelled, so the
    check reads them off h and multiplies no polynomial; it agrees with
    reading the forms of the built product z1*h.  A form other than z1 that
    vanishes at v, or z1 squared, makes the element fail."""
    v11 = RationalFunction.constant(CTX.v[(1, 1)])
    X32 = RationalFunction.variable(3, 2)
    coeffs = {
        ONE / Z1: True,
        X11 / Z1: True,
        Z1**-2: False,
        X11 * Z1**-2: False,
        ONE / (X11 - v11): False,
        (ONE / Z1) * (ONE / (X11 - v11)): False,
        (ONE / Z1) * (ONE / (X11 - v11 - ONE)): True,
        X32 * X11: True,
        phi_general(3, 2, 3).coeff(S21): True,
    }
    elements = {}
    for h, want in coeffs.items():
        for sigma in (Shift.identity(), S21):
            elements[RingElement.term(h, sigma)] = want
    elements[RingElement([(S21, ONE / Z1), (S22, Z1**-2)])] = False

    def by_product(a):
        return not any(
            form.evaluate(CTX.v.coords) == 0
            for h in a.terms.values()
            for form in (h * CTX.z1).forms
        )

    assert all(by_product(a) == want for a, want in elements.items())

    def no_product(*_):
        raise AssertionError("a polynomial product was built")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    for a, want in elements.items():
        assert is_at_most_one_singular(CTX, a) == want


def test_product_closure_anchor():
    a = RingElement([(S21, ONE / Z1), (S22, -(ONE / Z1))])
    prod = ring_mul_circ(a, a)
    expected = RingElement(
        [
            (S21 * S21, (ONE / Z1) * (ONE / (Z1 - ONE))),
            (S21 * S22, -(RationalFunction.constant(2) / (Z1 - ONE)) * (ONE / (Z1 + ONE))),
            (S22 * S22, (ONE / Z1) * (ONE / (Z1 + ONE))),
        ]
    )
    assert prod == expected
    assert is_tau_invariant(CTX, prod)
    assert is_at_most_one_singular(CTX, prod)
    # the cube keeps a simple pole at the base point as well
    cube = ring_mul_circ(prod, a)
    assert is_at_most_one_singular(CTX, cube)
