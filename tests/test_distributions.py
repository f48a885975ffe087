import random
from fractions import Fraction

import pytest

from gtsingular import distributions
from gtsingular.distributions import (
    BasisVec,
    DerivTabVec,
    DistVector,
    InvariantViolation,
    MembershipError,
    OrbitVector,
    act,
    act_lie,
    appendix_act,
    apply_dist,
    basis_correspondence,
    basis_correspondence_inverse,
    canonical_basis_vec,
    dist_functional,
    evaluate_at_v,
    generic_act,
    generic_act_element,
    materialize,
)
from gtsingular.gtformulas import (
    all_generators,
    convention,
    gl_bracket,
    multiply,
    phi_combination,
    phi_diagonal,
    phi_general,
)
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction, multiply_by_linear
from gtsingular.skewring import RingElement, apply_to_function, is_tau_invariant, ring_mul_circ
from gtsingular.suites import (
    GENERIC_LABELS_3,
    GENERIC_POINT_3,
    appendix_sample,
    random_dist_vector,
    random_generator_form,
    random_invariant_polynomial,
)
from gtsingular.tableau import Point, Shift, SingularContext, canonical_context

CTX = canonical_context()
ID = Shift.identity()
S11 = Shift.generator(1, 1)
S21 = Shift.generator(2, 1)
S22 = Shift.generator(2, 2)
ONE = RationalFunction.one()
HALF = Fraction(1, 2)


def half_over_z1():
    return RationalFunction(Polynomial.constant(HALF), CTX.z1_poly)


# --- canonicalization ---------------------------------------------------------


def test_canonical_basis_vec():
    bv, sign = canonical_basis_vec(CTX, "D1", S21)
    assert bv == BasisVec("D1", S22) and sign == 1
    bv, sign = canonical_basis_vec(CTX, "D2", S21)
    assert bv == BasisVec("D2", S22) and sign == -1
    with pytest.raises(ValueError):
        canonical_basis_vec(CTX, "D2", ID)
    with pytest.raises(ValueError):
        canonical_basis_vec(CTX, "D3", ID)


def test_from_terms_applies_relations():
    d = DistVector.from_terms(CTX, [("D1", S21, Fraction(1)), ("D1", S22, Fraction(2))])
    assert d == DistVector({BasisVec("D1", S22): Fraction(3)})
    d2 = DistVector.from_terms(CTX, [("D2", S21, Fraction(1)), ("D2", S22, Fraction(1))])
    assert d2.is_zero()
    # a zero coefficient is skipped before its kind is checked
    assert DistVector.from_terms(CTX, [("D3", ID, Fraction(0)), ("D2", ID, 0)]).is_zero()


def test_from_terms_rejects_fixed_d2():
    with pytest.raises(InvariantViolation):
        DistVector.from_terms(CTX, [("D2", S21 * S22, Fraction(1))])


def test_d2_undefined_on_fixed_shift():
    fixed = S21 * S22
    with pytest.raises(ValueError, match="D2 is undefined"):
        materialize(CTX, BasisVec("D2", fixed))
    with pytest.raises(ValueError, match="D2 is undefined"):
        dist_functional(CTX, "D2", fixed, Polynomial.one())
    with pytest.raises(ValueError, match="unknown distribution kind 'D3'"):
        dist_functional(CTX, "D3", S21, Polynomial.one())


def test_functional_reports_a_failed_division(monkeypatch):
    """The antisymmetrized test function is always divisible by z1; a
    division that fails anyway is an internal error, not a value."""
    monkeypatch.setattr(distributions, "divexact", lambda p, q: None)
    with pytest.raises(InvariantViolation, match="not divisible by z1"):
        dist_functional(CTX, "D2", S22, Polynomial.variable(1, 1))


def test_deriv_tab_vec_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="unknown tableau symbol 'D1'"):
        DerivTabVec.from_terms(CTX, [("D1", S22, Fraction(1))])


def test_canonicalization_idempotent():
    rng = random.Random(1)
    for _ in range(10):
        d = random_dist_vector(rng, CTX)
        again = DistVector.from_terms(
            CTX, [(bv.kind, bv.sigma, c) for bv, c in d.terms.items()]
        )
        assert again == d


# --- expansion at the base point ---------------------------------------------


def test_evaluate_examples():
    a = RingElement([(S22, half_over_z1()), (S21, -half_over_z1())])
    assert evaluate_at_v(CTX, a) == DistVector({BasisVec("D2", S22): Fraction(1)})

    b = RingElement([(S22, RationalFunction.constant(HALF)), (S21, RationalFunction.constant(HALF))])
    assert evaluate_at_v(CTX, b) == DistVector({BasisVec("D1", S22): Fraction(1)})

    c = phi_diagonal(3, 1)
    assert evaluate_at_v(CTX, c) == DistVector(
        {BasisVec("D1", ID): CTX.v[(1, 1)]}
    )


def test_evaluate_membership_errors():
    with pytest.raises(MembershipError, match="not invariant under the transposition"):
        evaluate_at_v(CTX, RingElement.term(ONE, S21))
    z1sq = CTX.z1 * CTX.z1
    bad = RingElement([(S21, ONE / z1sq), (S22, ONE / z1sq)])
    with pytest.raises(MembershipError, match="higher-order pole at the base point"):
        evaluate_at_v(CTX, bad)


def test_evaluation_is_the_action_on_ev_v():
    """ev_v is the basis vector D1[id], whose ring element is the unit, so
    expanding ev_v o A term by term is A acting on it."""
    ev_v = BasisVec("D1", ID)
    assert materialize(CTX, ev_v) == RingElement.one()
    rng = random.Random(23)
    for _ in range(60):
        a = random_generator_form(rng, CTX)
        if rng.random() < 0.4:
            a = ring_mul_circ(a, random_generator_form(rng, CTX))
        want = distributions._expand_at_v(CTX, a)
        assert evaluate_at_v(CTX, a) == act(CTX, a, ev_v) == want


def test_materialize_roundtrip():
    for bv in [BasisVec("D1", ID), BasisVec("D1", S22), BasisVec("D2", S22)]:
        assert evaluate_at_v(CTX, materialize(CTX, bv)) == DistVector.basis(bv)


# --- module action -------------------------------------------------------------


def test_act_unit_is_identity():
    for bv in [BasisVec("D1", ID), BasisVec("D2", S22), BasisVec("D1", S21 * S22)]:
        assert act(CTX, RingElement.one(), bv) == DistVector.basis(bv)


def test_act_diagonal_example():
    out = act(CTX, phi_diagonal(3, 1), BasisVec("D1", ID))
    assert out == DistVector({BasisVec("D1", ID): CTX.v[(1, 1)]})
    assert act_lie(CTX, (1, 1), BasisVec("D1", ID)) == out


def test_act_diagonal_triangular():
    for k in (1, 2, 3):
        out = act_lie(CTX, (k, k), BasisVec("D2", S22))
        assert set(out.support()) <= {BasisVec("D2", S22), BasisVec("D1", S22)}
        out1 = act_lie(CTX, (k, k), BasisVec("D1", S11))
        assert set(out1.support()) <= {BasisVec("D1", S11)}


def test_act_finite_support():
    for gen in [(1, 2), (2, 3), (3, 2), (1, 3)]:
        out = act_lie(CTX, gen, BasisVec("D2", S22))
        assert len(out.support()) <= 2 * (3 + 1)


@pytest.mark.parametrize(
    "x,y",
    [((1, 2), (2, 1)), ((2, 3), (3, 2)), ((1, 2), (2, 3)), ((1, 1), (1, 2)), ((1, 3), (3, 1))],
)
def test_act_commutator_consistency(x, y):
    for spec in [("D1", ID), ("D2", S22), ("D1", S21 * S22)]:
        d = DistVector.from_terms(CTX, [(spec[0], spec[1], Fraction(1))])
        lhs = act_lie(CTX, x, act_lie(CTX, y, d)) - act_lie(CTX, y, act_lie(CTX, x, d))
        rhs = act(CTX, phi_combination(3, gl_bracket(x, y)), d)
        assert lhs == rhs


def expanded_den_element():
    """A tau-invariant element whose coefficients have the non-linear
    denominator x21*x22 + 1, so they stay on the expanded path."""
    x21, x22 = Polynomial.variable(2, 1), Polynomial.variable(2, 2)
    den = x21 * x22 + Polynomial.one()
    h = RationalFunction(x21, den)
    a = RingElement(
        [(ID, RationalFunction(Polynomial.one(), den)), (S21, h), (S22, CTX.transpose(h))]
    )
    assert h.forms is None and is_tau_invariant(CTX, a)
    return a


def test_evaluated_jet_matches_symbolic_derivative():
    """The first z1-jet read by evaluation equals the value of the symbolic
    derivative on every coefficient z1*h of every product the action forms:
    all 9 order-3 generator images, plus one element with an expanded
    denominator, times the appendix sample."""
    v = CTX.v.coords
    elements = [phi_general(3, *gen) for gen in all_generators(3)]
    elements.append(expanded_den_element())
    expanded = 0
    for a in elements:
        for kind, sigma in appendix_sample(CTX):
            product = multiply(convention(), a, materialize(CTX, BasisVec(kind, sigma)))
            for h in product.terms.values():
                g = multiply_by_linear(h, CTX.z1_poly)
                expanded += g.forms is None
                want = (g.evaluate(v), CTX.partial_z1(g).evaluate(v))
                assert distributions._z1_jet(CTX, g) == want
    assert expanded


def test_act_on_an_expanded_denominator():
    """The jet's expanded-denominator branch inside the action agrees with
    expanding the symbolic product through the derivative."""
    a = expanded_den_element()
    v = CTX.v.coords
    for kind, sigma in appendix_sample(CTX):
        product = multiply(convention(), a, materialize(CTX, BasisVec(kind, sigma)))
        terms = []
        for rho, h in product.terms.items():
            g = multiply_by_linear(h, CTX.z1_poly)
            terms.append(("D2", rho, g.evaluate(v)))
            terms.append(("D1", rho, CTX.partial_z1(g).evaluate(v)))
        assert act(CTX, a, BasisVec(kind, sigma)) == DistVector.from_terms(CTX, terms)


def test_act_checks_invariance_of_the_acting_element():
    for bv in [BasisVec("D1", ID), BasisVec("D2", S22)]:
        with pytest.raises(MembershipError, match="not invariant under the transposition"):
            act(CTX, RingElement.term(ONE, S21), bv)


def test_act_lie_columns_match_act():
    """act_lie sums memoized columns; the first call fills them and the
    second is served from the memo, and both equal the direct action."""
    ctx = canonical_context()
    vectors = [DistVector.basis(BasisVec(kind, sigma)) for kind, sigma in appendix_sample(ctx)]
    terms = [("D1", ID, Fraction(2)), ("D2", S22, Fraction(-3, 4)), ("D2", S21 * S11, Fraction(5))]
    vectors.append(DistVector.from_terms(ctx, terms))
    for gen in all_generators(3):
        a = phi_general(3, *gen)
        for d in vectors:
            want = act(ctx, a, d)
            hits = distributions._lie_column.cache_info().hits
            assert act_lie(ctx, gen, d) == want
            assert act_lie(ctx, gen, d) == want
            assert distributions._lie_column.cache_info().hits >= hits + len(d.terms)


def test_act_lie_columns_are_per_context():
    """Contexts at different points keep their own columns."""
    other = SingularContext(
        Point.from_rows(
            [
                [Fraction(1, 17)],
                [Fraction(2, 3), Fraction(2, 3)],
                [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)],
            ]
        ),
        2, 1, 2,
    )
    bv = BasisVec("D1", ID)
    for ctx in (CTX, other, CTX):
        assert act_lie(ctx, (1, 1), bv) == DistVector({bv: ctx.v[(1, 1)]})
        assert act_lie(ctx, (2, 3), bv) == act(ctx, phi_general(3, 2, 3), bv)
    assert act_lie(CTX, (2, 3), bv) != act_lie(other, (2, 3), bv)


def test_act_linear_in_distvector():
    rng = random.Random(5)
    d1 = random_dist_vector(rng, CTX)
    d2 = random_dist_vector(rng, CTX)
    a = phi_general(3, 2, 3)
    assert act(CTX, a, d1 + d2.scale(3)) == act(CTX, a, d1) + act(CTX, a, d2).scale(3)


# --- functionals ---------------------------------------------------------------


def test_functional_examples():
    z1sq = CTX.z1_poly * CTX.z1_poly
    f = Polynomial.constant(Fraction(5, 7)) + z1sq.scale(Fraction(3))
    assert dist_functional(CTX, "D1", ID, f) == Fraction(5, 7)
    assert dist_functional(CTX, "D2", S21, z1sq) == -2
    assert dist_functional(CTX, "D2", S22, z1sq) == 2
    for sigma in [ID, S11, S21, S21 * S22, S22**2]:
        assert dist_functional(CTX, "D1", sigma, Polynomial.one()) == 1


def test_functional_requires_invariance():
    with pytest.raises(ValueError):
        apply_dist(CTX, DistVector.basis(BasisVec("D1", ID)), Polynomial.variable(2, 1))


def test_relations_as_functionals():
    rng = random.Random(9)
    for _ in range(10):
        f = random_invariant_polynomial(rng, CTX)
        sigma = Shift({(1, 1): rng.randint(-2, 2), (2, 1): rng.randint(-2, 2), (2, 2): rng.randint(-2, 2)})
        tau_sigma = CTX.tau_of_shift(sigma)
        assert dist_functional(CTX, "D1", tau_sigma, f) == dist_functional(CTX, "D1", sigma, f)
        if sigma != tau_sigma:
            assert dist_functional(CTX, "D2", tau_sigma, f) == -dist_functional(
                CTX, "D2", sigma, f
            )


def test_separating_matrix():
    """On {1, z1^2} the even vectors read the constant and the odd ones read
    twice the component gap."""
    one = Polynomial.one()
    z1sq = CTX.z1_poly * CTX.z1_poly
    for m1 in range(-2, 3):
        for m2 in range(m1, 3):
            sigma = Shift({(2, 1): m1, (2, 2): m2})
            c = m1 - m2
            assert dist_functional(CTX, "D1", sigma, one) == 1
            assert dist_functional(CTX, "D1", sigma, z1sq) == c * c
            if c != 0:
                assert dist_functional(CTX, "D2", sigma, one) == 0
                assert dist_functional(CTX, "D2", sigma, z1sq) == -2 * c


@pytest.mark.parametrize("seed", range(8))
def test_functional_consistency(seed):
    rng = random.Random(1000 + seed)
    a = random_generator_form(rng, CTX)
    f = random_invariant_polynomial(rng, CTX)
    lhs = apply_dist(CTX, evaluate_at_v(CTX, a), f)
    rhs = apply_to_function(a, RationalFunction.from_poly(f)).evaluate(CTX.v.coords)
    assert lhs == rhs


# --- generic orbit action ------------------------------------------------------


def test_generic_act_diagonal():
    x = GENERIC_POINT_3
    y = Shift({(2, 1): 1})
    out = generic_act(x, (2, 2), y)
    p = {v: c + (1 if v == (2, 1) else 0) for v, c in x.coords.items()}
    expected = p[(2, 1)] + p[(2, 2)] + 1 - p[(1, 1)]
    assert out == OrbitVector({y: expected})


def test_generic_act_raising_n2():
    x = Point.from_rows([[Fraction(1, 5)], [Fraction(1, 3), Fraction(1, 7)]])
    y = Shift({(1, 1): 1})
    out = generic_act(x, (1, 2), y)
    p = dict(x.coords)
    p[(1, 1)] += 1
    coeff = -(p[(1, 1)] - p[(2, 1)]) * (p[(1, 1)] - p[(2, 2)])
    assert out == OrbitVector({y * Shift.generator(1, 1): coeff})


def test_generic_act_rejects_singular_point():
    """lru_cache keeps no exception: the point check runs on every call at
    a singular point, on a cold memo and on one that holds other columns."""
    singular = canonical_context().v
    distributions._generic_column.cache_clear()
    with pytest.raises(ValueError, match="generic point"):
        generic_act(singular, (1, 1), ID)
    generic_act(GENERIC_POINT_3, (1, 1), ID)
    for _ in range(2):
        with pytest.raises(ValueError, match="generic point"):
            generic_act(singular, (1, 1), ID)
    assert distributions._generic_column.cache_info().currsize == 1


def test_generic_act_is_linear():
    """On a 2-term vector the orbit action is the combination of the
    actions on its labels; on 1*y it is the action on the label y."""
    x = GENERIC_POINT_3
    y, z = ID, Shift({(2, 1): 1})
    d = OrbitVector({y: Fraction(2), z: Fraction(-1, 3)})
    for gen in [(1, 2), (2, 2), (3, 1)]:
        want = generic_act(x, gen, y).scale(2) + generic_act(x, gen, z).scale(Fraction(-1, 3))
        assert want and generic_act(x, gen, d) == want
        assert generic_act(x, gen, OrbitVector({y: 1})) == generic_act(x, gen, y)


def test_generic_act_memo_matches_element_oracle():
    """The memoized columns agree with the unmemoized element action for
    every order-3 generator, on labels and on a 2-term vector; an equal
    point built anew is served from the memo."""
    x = GENERIC_POINT_3
    d = OrbitVector({ID: Fraction(2), Shift({(2, 1): 1}): Fraction(-1, 3)})
    for r, s in all_generators(3):
        a = phi_general(3, r, s)
        for y in [*GENERIC_LABELS_3, d]:
            assert generic_act(x, (r, s), y) == generic_act_element(x, a, y)
    twin = Point.from_rows(x.rows())
    assert twin is not x
    misses = distributions._generic_column.cache_info().misses
    for gen in all_generators(3):
        for y in GENERIC_LABELS_3:
            generic_act(twin, gen, y)
    assert distributions._generic_column.cache_info().misses == misses


def test_generic_commutators_sampled():
    x = GENERIC_POINT_3
    labels = [ID, Shift({(2, 1): 1})]
    for xg, yg in [((1, 2), (2, 1)), ((2, 3), (3, 2))]:
        for y in labels:
            lhs = generic_act(x, xg, generic_act(x, yg, y)) - generic_act(
                x, yg, generic_act(x, xg, y)
            )
            rhs = generic_act_element(x, phi_combination(3, gl_bracket(xg, yg)), y)
            assert lhs == rhs


# --- derivative-tableau oracle --------------------------------------------------


def test_appendix_diagonal_on_base_symbol():
    e = DerivTabVec.from_terms(CTX, [("T", ID, Fraction(1))])
    out = appendix_act(CTX, (1, 1), e)
    assert out == DerivTabVec({("T", ID): CTX.v[(1, 1)]})


def test_appendix_relation_sanity():
    e = DerivTabVec.from_terms(
        CTX, [("DT", S21, Fraction(1)), ("DT", S22, Fraction(1))]
    )
    assert e.is_zero()
    # 2*DT = 0 on a tau-fixed shift, so the symbol is dropped there
    assert DerivTabVec.from_terms(CTX, [("DT", S21 * S22, Fraction(1))]).is_zero()
    assert appendix_act(CTX, (2, 3), e).is_zero()


def test_correspondence_labels():
    d = DistVector.basis(BasisVec("D1", S21 * S22))
    assert basis_correspondence(CTX, d) == DerivTabVec({("T", S21 * S22): Fraction(1)})
    d2 = DistVector.basis(BasisVec("D2", S22))
    assert basis_correspondence(CTX, d2) == DerivTabVec({("DT", S22): Fraction(1)})


def test_correspondence_roundtrip():
    rng = random.Random(17)
    for _ in range(10):
        d = random_dist_vector(rng, CTX)
        assert basis_correspondence_inverse(CTX, basis_correspondence(CTX, d)) == d


@pytest.mark.parametrize("gen", [(1, 2), (2, 1), (2, 3), (3, 2), (1, 1), (2, 2), (3, 3), (1, 3), (3, 1)])
def test_appendix_intertwines(gen):
    for spec in [("D1", ID), ("D2", S22), ("D1", S21 * S22), ("D2", S22**2)]:
        d = DistVector.from_terms(CTX, [(spec[0], spec[1], Fraction(1))])
        lhs = basis_correspondence(CTX, act_lie(CTX, gen, d))
        rhs = appendix_act(CTX, gen, basis_correspondence(CTX, d))
        assert lhs == rhs


# --- serialization ---------------------------------------------------------------


def test_dist_vector_json_shape():
    d = DistVector.from_terms(CTX, [("D2", S21, Fraction(-3, 2))])
    assert d.to_json() == [
        {"kind": "D2", "shift": {"(2,2)": 1}, "coeff": "3/2"}
    ]
