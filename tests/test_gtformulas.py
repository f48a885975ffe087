import hashlib
import json
import random
from fractions import Fraction

import pytest

from gtsingular import gtformulas, ratfun
from gtsingular.gtformulas import (
    all_generators,
    bracket,
    commutator_once,
    convention,
    gl_bracket,
    phi_combination,
    phi_general,
    verify_homomorphism,
)
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.skewring import (
    RingElement,
    group_act_on_ring,
    is_at_most_one_singular,
    is_tau_invariant,
    ring_commutator,
    ring_mul_circ,
)
from gtsingular.tableau import Shift, SingularContext, canonical_context, classify_point
from tests_helpers import ORDER6_POINT, assert_canonical, bracket_image, regular_on_orbit

CTX = canonical_context()


def X(k, i):
    return Polynomial.variable(k, i)


# --- structure table ---------------------------------------------------------


def test_bracket_spot_values():
    assert gl_bracket((1, 2), (2, 1)) == [(1, (1, 1)), (-1, (2, 2))]
    assert gl_bracket((1, 1), (2, 2)) == []
    assert gl_bracket((1, 2), (2, 3)) == [(1, (1, 3))]
    assert gl_bracket((1, 1), (1, 2)) == [(1, (1, 2))]


def test_bracket_antisymmetry():
    gens = [(r, s) for r in range(1, 4) for s in range(1, 4)]
    for x in gens:
        for y in gens:
            lhs = sorted(gl_bracket(x, y))
            rhs = sorted((-sign, g) for sign, g in gl_bracket(y, x))
            assert lhs == rhs


def test_bracket_jacobi_sampled():
    rng = random.Random(5)
    gens = [(r, s) for r in range(1, 4) for s in range(1, 4)]

    def combo_bracket(combo, z):
        out = {}
        for sign, g in combo:
            for s2, h in gl_bracket(g, z):
                out[h] = out.get(h, 0) + sign * s2
        return {g: c for g, c in out.items() if c}

    for _ in range(40):
        x, y, z = (rng.choice(gens) for _ in range(3))
        total = {}
        for combo in (
            combo_bracket(gl_bracket(x, y), z),
            combo_bracket(gl_bracket(y, z), x),
            combo_bracket(gl_bracket(z, x), y),
        ):
            for g, c in combo.items():
                total[g] = total.get(g, 0) + c
        assert all(c == 0 for c in total.values())


# --- generator images --------------------------------------------------------


def test_phi_raising_n2():
    expected = RingElement.term(
        RationalFunction(-(X(1, 1) - X(2, 1)) * (X(1, 1) - X(2, 2)), Polynomial.one()),
        Shift.generator(1, 1, -1),
    )
    assert phi_general(2, 1, 2) == expected


def test_phi_lowering_n2():
    assert phi_general(2, 2, 1) == RingElement.term(
        RationalFunction.one(), Shift.generator(1, 1)
    )


def test_phi_raising_n3_row2():
    a = phi_general(3, 2, 3)
    assert a.support() == sorted(
        [Shift.generator(2, 1, -1), Shift.generator(2, 2, -1)], key=Shift.sort_key
    )
    c1 = a.coeff(Shift.generator(2, 1, -1))
    assert c1.den == X(2, 1) - X(2, 2)
    c2 = a.coeff(Shift.generator(2, 2, -1))
    # canonical denominators are monic, so the sign sits in the numerator
    assert c2.den == X(2, 1) - X(2, 2)
    num = Polynomial.one()
    for j in range(1, 4):
        num = num * (X(2, 1) - X(3, j))
    assert c1 == RationalFunction(-num, X(2, 1) - X(2, 2))


def test_phi_lowering_n3_row2():
    a = phi_general(3, 3, 2)
    c1 = a.coeff(Shift.generator(2, 1))
    assert c1 == RationalFunction(X(2, 1) - X(1, 1), X(2, 1) - X(2, 2))
    c2 = a.coeff(Shift.generator(2, 2))
    assert c2 == RationalFunction(X(2, 2) - X(1, 1), X(2, 2) - X(2, 1))


def test_phi_diagonal():
    assert phi_general(3, 1, 1) == RingElement.term(
        RationalFunction.variable(1, 1), Shift.identity()
    )
    expected = RationalFunction.from_poly(
        X(2, 1) + X(2, 2) + Polynomial.one() - X(1, 1)
    )
    assert phi_general(3, 2, 2) == RingElement.term(expected, Shift.identity())


def test_one_image_per_generator():
    """The images do not depend on n: every order returns the same object
    for E(r,s), so orders 2 to 6 together build 36 images, not 90."""
    gtformulas._image.cache_clear()
    for n in range(2, 7):
        for m in range(2, 7):
            for r, s in all_generators(min(n, m)):
                assert phi_general(n, r, s) is phi_general(m, r, s), (n, m, r, s)
    assert gtformulas._image.cache_info().currsize == 36


def generic_point(rng, n=3):
    from gtsingular.tableau import Point, classify_point

    primes = [5, 7, 11, 13, 17, 19]
    while True:
        rows = []
        idx = 0
        for k in range(1, n + 1):
            rows.append([Fraction(rng.randint(1, 30), primes[idx + i]) for i in range(k)])
            idx += k
        p = Point.from_rows(rows)
        if classify_point(p).tag == "Generic":
            return p


@pytest.mark.parametrize("seed", range(4))
def test_generic_evaluation_oracle(seed):
    """Coefficients of the images evaluate to the classical formula values,
    computed here with independent nested loops over the point coordinates."""
    rng = random.Random(900 + seed)
    p = generic_point(rng)
    x = p.coords
    for k in (1, 2):
        img = phi_general(3, k, k + 1)
        for i in range(1, k + 1):
            num = Fraction(1)
            for j in range(1, k + 2):
                num *= x[(k, i)] - x[(k + 1, j)]
            den = Fraction(1)
            for j in range(1, k + 1):
                if j != i:
                    den *= x[(k, i)] - x[(k, j)]
            assert img.coeff(Shift.generator(k, i, -1)).evaluate(x) == -num / den
        img = phi_general(3, k + 1, k)
        for i in range(1, k + 1):
            num = Fraction(1)
            for j in range(1, k):
                num *= x[(k, i)] - x[(k - 1, j)]
            den = Fraction(1)
            for j in range(1, k + 1):
                if j != i:
                    den *= x[(k, i)] - x[(k, j)]
            assert img.coeff(Shift.generator(k, i)).evaluate(x) == num / den
    for k in (1, 2, 3):
        img = phi_general(3, k, k)
        val = sum(x[(k, i)] + i - 1 for i in range(1, k + 1)) - sum(
            x[(k - 1, i)] + i - 1 for i in range(1, k)
        )
        assert img.coeff(Shift.identity()).evaluate(x) == val


def test_all_images_tau_invariant():
    for r in range(1, 4):
        for s in range(1, 4):
            assert is_tau_invariant(CTX, phi_general(3, r, s)), (r, s)


def test_all_images_in_universal_ring():
    for r in range(1, 4):
        for s in range(1, 4):
            a = phi_general(3, r, s)
            assert is_at_most_one_singular(CTX, a), (r, s)
            assert regular_on_orbit(CTX, a), (r, s)


def test_tau_invariance_of_lowering_row2():
    a = phi_general(3, 3, 2)
    assert group_act_on_ring(CTX, a) == a


# --- the product and the homomorphism --------------------------------------


def test_convention_is_star():
    """The fixed product; the tests below prove it: the homomorphism holds
    with "star" and fails with "circ" at orders 2 and 3."""
    assert convention() == "star"


def test_circ_commutator_has_wrong_sign():
    lhs = bracket("circ", phi_general(2, 1, 2), phi_general(2, 2, 1))
    rhs = phi_combination(2, [(1, (1, 1)), (-1, (2, 2))])
    assert lhs == rhs.scale(-1)
    lhs_star = bracket("star", phi_general(2, 1, 2), phi_general(2, 2, 1))
    assert lhs_star == rhs


def test_diagonal_pair_commutes_both_ways():
    for conv in ("circ", "star"):
        assert bracket(conv, phi_general(2, 1, 1), phi_general(2, 2, 2)).is_zero()


def test_homomorphism_n2():
    report = verify_homomorphism(2)
    assert report["ok"] and report["total"] == 16 and report["passed"] == 16


def test_homomorphism_oracle_fails_on_the_other_product(monkeypatch):
    """With the circ product the oracle reports every failing pair, each
    with a counterexample, and does not pass."""
    monkeypatch.setattr(gtformulas, "convention", lambda: "circ")
    report = verify_homomorphism(2)
    assert not report["ok"] and report["convention"] == "circ"
    assert report["total"] == 16 and report["passed"] == 6
    assert len(report["failures"]) == 10
    for failure in report["failures"]:
        assert failure in report["checks"] and failure["equal"] is False
        assert set(failure["counterexample"]) == {"shift", "coeff"}


def test_homomorphism_n3():
    report = verify_homomorphism(3)
    assert report["ok"] and report["convention"] == "star"
    assert report["total"] == report["passed"] == 81


def test_homomorphism_oracle_fails_on_the_other_product_n3(monkeypatch):
    """At order 3 the circ product fails on more pairs than at order 2: the
    images come from the path formula, which does not depend on the
    product, so the pairs whose bracket is a non-adjacent image fail too."""
    monkeypatch.setattr(gtformulas, "convention", lambda: "circ")
    report = verify_homomorphism(3)
    assert not report["ok"] and report["convention"] == "circ"
    assert report["total"] == 81 and report["passed"] == 39
    assert len(report["failures"]) == 42


def test_homomorphism_catches_a_dropped_image_term(monkeypatch):
    """The defining pairs test the path formula: with one term of E(1,3)'s
    image dropped, [E(1,2), E(2,3)] = E(1,3) fails.  The image cache is
    cleared on both sides so the broken image reaches no other test."""
    gtformulas._image.cache_clear()
    try:
        image = phi_general(3, 1, 3)
        monkeypatch.delitem(image.terms, Shift({(1, 1): -1, (2, 1): -1}))
        report = verify_homomorphism(3)
    finally:
        gtformulas._image.cache_clear()
    assert not report["ok"]
    assert [[1, 2], [2, 3]] in [f["pair"] for f in report["failures"]]


# sha256 of json.dumps(report, sort_keys=True), recorded when every
# ordered pair still built its own bracket
REPORT_DIGESTS = {
    ("star", 2): "020179c24a40ddec1e9f12d1808507aaa6109987404c4fdc8131e39738a3e9f1",
    ("star", 3): "f1a53df4b1edcf254f9f6b377d808764483895fd95f7d710c558fbc46c885364",
    ("circ", 2): "2be657fa1e0a019beb322d1286d0674e8b2694a882f683b4980d2d47dfbe90b5",
    ("circ", 3): "9ad1a4716b495ed645c5e784e9b1eb8813294f87708e27d2302414490ef2a05e",
}


@pytest.mark.parametrize("conv, n", list(REPORT_DIGESTS))
def test_homomorphism_reports_are_pinned(monkeypatch, conv, n):
    """The full report, failures and counterexamples included, under both
    products: building [y,x] as -[x,y] and [x,x] as zero changes no byte."""
    monkeypatch.setattr(gtformulas, "convention", lambda: conv)
    report = verify_homomorphism(n)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(conv, n)]


@pytest.mark.parametrize("x, y", [((1, 3), (2, 4)), ((1, 3), (1, 4))])
def test_homomorphism_order4_corner_brackets(x, y):
    """Two order-4 corner pairs of non-adjacent images, whose commutators
    run through large sums and exact divisions by linear forms."""
    lhs = bracket(convention(), phi_general(4, *x), phi_general(4, *y))
    assert lhs == phi_combination(4, gl_bracket(x, y))


def _oracle_pairs(n, diagonal_only):
    gens = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
    return [(x, y) for x in gens for y in gens
            if not diagonal_only or x[0] == x[1] or y[0] == y[1]]


@pytest.mark.parametrize("n, diagonal_only, count", [(3, False, 81), (4, True, 112)])
def test_commutator_of_images_matches_two_products(n, diagonal_only, count):
    """The one-pass commutator against two full products on every ordered
    pair of order-3 images, and on the order-4 pairs with a diagonal side."""
    pairs = _oracle_pairs(n, diagonal_only)
    assert len(pairs) == count
    for x, y in pairs:
        a, b = phi_general(n, *x), phi_general(n, *y)
        assert ring_commutator(a, b) == ring_mul_circ(a, b) - ring_mul_circ(b, a), (x, y)


def test_commutator_once_builds_each_unordered_pair_once_per_label():
    """Diagonal pairs are zero unbuilt; the first of (x, y) and (y, x) at a
    label builds, the other takes its negation; nothing stays held."""
    gens = [(1, 2), (2, 1), (1, 1)]
    built, values, held = [], {}, {}
    for x in gens:
        for y in gens:
            for label in ("a", "b"):
                def build():
                    built.append((x, y, label))
                    return len(built)

                values[x, y, label] = commutator_once(held, x, y, build, 0, label)
    assert built == [(x, y, label) for i, x in enumerate(gens) for y in gens[i + 1:]
                     for label in ("a", "b")]
    assert all(values[x, y, lb] == -values[y, x, lb] for x, y, lb in values)
    assert all(values[x, x, lb] == 0 for x in gens for lb in ("a", "b"))
    assert held == {}


def test_commutator_antisymmetry_of_reports():
    conv = convention()
    a, b = phi_general(3, 1, 2), phi_general(3, 2, 2)
    assert bracket(conv, a, b) == bracket(conv, b, a).scale(-1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_phi_general_nonadjacent_bracket(n):
    """Every non-adjacent image from the path formula equals the bracket
    of its neighbouring images (`bracket_image`)."""
    for r, s in all_generators(n):
        if abs(r - s) > 1:
            image = phi_general(n, r, s)
            assert not image.is_zero()
            assert image == bracket_image(n, r, s), (r, s)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_image_coefficients_are_reduced_as_built(n):
    """No denominator form of an image coefficient divides its numerator,
    though the path formula builds each one with no division.  Each
    off-diagonal image coefficient carries its numerator's factors: a unit
    +-1 and monic differences x_a - x_b whose product times the unit is the
    numerator; a diagonal coefficient carries none."""
    for r, s in all_generators(n):
        image = phi_general(n, r, s)
        for sigma, c in image.terms.items():
            assert_canonical(c)
            if r == s:
                assert c._num_forms is None
                continue
            unit, forms = c._num_forms
            assert unit in (1, -1)
            p = Polynomial.constant(unit)
            for form, e in forms.items():
                assert len(form.terms) == 2 and form.leading_coeff() == 1
                assert sorted(form.terms.values()) == [-1, 1] and form.den == 1
                p = p * form**e
            assert p == c.num, (r, s, sigma)


def test_order6_images_are_tau_invariant_with_no_expansion(monkeypatch):
    """All 36 order-6 images are invariant under the transposition at the
    pair (2,1,2) of ORDER6_POINT, decided with no numerator expanded: each
    coefficient is transposed and compared through its factors.  Dropping
    a term at a shift the transposition moves breaks the invariance.  Every
    order shares one image per generator, and a coefficient keeps its
    expansion once made, so the images are built afresh here."""
    assert str(classify_point(ORDER6_POINT)) == "OneSingular(2,1,2)"
    ctx = SingularContext(ORDER6_POINT)

    def expand(forms):
        raise AssertionError("a numerator was expanded")

    monkeypatch.setattr(ratfun, "_expand", expand)
    gtformulas._image.cache_clear()
    images = {(r, s): phi_general(6, r, s) for r, s in all_generators(6)}
    for (r, s), image in images.items():
        assert is_tau_invariant(ctx, image), (r, s)
        if r != s:
            assert all(c._num is None for c in image.terms.values()), (r, s)
    corner = images[1, 6]
    moved = next(rho for rho in corner.terms if ctx.tau_of_shift(rho) != rho)
    broken = RingElement._raw({rho: c for rho, c in corner.terms.items() if rho != moved})
    assert not is_tau_invariant(ctx, broken)


def test_phi_invalid_indices():
    for n, r, s in [(3, 0, 1), (3, 4, 4), (3, 1, 4), (3, 4, 1), (2, 0, 0), (1, 1, 2), (4, 5, 5)]:
        with pytest.raises(ValueError, match=rf"^generator E\({r},{s}\) out of range for gl_{n}$"):
            phi_general(n, r, s)


def test_input_guards():
    a = phi_general(2, 1, 2)
    with pytest.raises(ValueError, match="unknown multiplication convention"):
        bracket("nope", a, a)
