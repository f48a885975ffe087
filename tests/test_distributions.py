import math
import random
from fractions import Fraction

import pytest
import sympy

from gtsingular import distributions, ratfun
from gtsingular.distributions import (
    BasisVec,
    DistVector,
    InvariantViolation,
    MembershipError,
    OrbitVector,
    act,
    act_lie,
    appendix_act,
    apply_dist,
    evaluate_at_v,
    generic_act,
    generic_act_element,
    materialize,
)
from gtsingular.gtformulas import (
    all_generators,
    gl_bracket,
    phi_combination,
    phi_general,
)
from gtsingular.poly import Line, Polynomial
from gtsingular.ratfun import PoleError, RationalFunction
from gtsingular.skewring import (
    RingElement,
    apply_to_function,
    is_tau_invariant,
    ring_mul_circ,
)
from gtsingular.suites import (
    GENERIC_LABELS_3,
    GENERIC_POINT_3,
    appendix_sample,
    appendix_suite,
    random_generator_form,
    random_invariant_polynomial,
    random_polynomial,
    sample_basis,
)
from gtsingular.tableau import (
    Point,
    Shift,
    SingularContext,
    canonical_context,
    classify_point,
    shift_subst,
)
from tests_helpers import (
    ORDER5_POINT,
    ROW3_POINT,
    label_value,
    random_dist_vector,
    symbolic_act,
    taylor_series,
    to_sympy,
    z1_value_and_slope,
)

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


FROM_TERMS = {
    "D1-unordered": ([("D1", S21, 1)], "1*D1[σ[2,2]]"),
    "D2-unordered": ([("D2", S21, 1)], "-1*D2[σ[2,2]]"),
    "D2-fixed": ([("D2", ID, 1)], ValueError("D2 is undefined on a transposition-fixed shift")),
    "D2-fixed-moved": (
        [("D2", S21 * S22, 1)],
        ValueError("D2 is undefined on a transposition-fixed shift")),
    "D3": ([("D3", ID, 1)], ValueError("unknown distribution kind 'D3'")),
    "row-n": (
        [("D1", Shift({(3, 1): 1}), 1)],
        ValueError("shift touches row 3, beyond rows 1..2")),
    "past-row-n": (
        [("D2", S22 * Shift({(4, 2): 1}), 1)],
        ValueError("shift touches row 4, beyond rows 1..2")),
    "row-n-on-fixed-D2": (
        [("D2", Shift({(3, 3): -1}), 1)],
        ValueError("shift touches row 3, beyond rows 1..2")),
}


@pytest.mark.parametrize("case", FROM_TERMS)
def test_from_terms_checks_and_reduces_each_label(case):
    """from_terms is the one way in for a label from outside: it reduces a
    label to its ordered representative with its sign, and refuses a wrong
    kind, a shift outside rows 1..n-1 and D2 on a transposition-fixed
    shift with a ValueError, whose text the CLI prints; a shift outside
    the rows is named before the D2 rule is applied."""
    terms, want = FROM_TERMS[case]
    if isinstance(want, str):
        assert repr(DistVector.from_terms(CTX, terms)) == want
        return
    with pytest.raises(ValueError) as exc:
        DistVector.from_terms(CTX, terms)
    assert type(exc.value) is ValueError and str(exc.value) == str(want)


REFUSED = [case for case, (_, want) in FROM_TERMS.items() if isinstance(want, ValueError)]


@pytest.mark.parametrize("entry", ["appendix_act", "apply_dist"])
@pytest.mark.parametrize("case", REFUSED)
def test_every_entry_refuses_what_from_terms_refuses(case, entry):
    """One label rule: the derivative-tableau oracle and the functional read
    a label as given, unreduced, and refuse every label from_terms refuses
    with its ValueError text, before reading it, alone or beside a good
    label.  The oracle read D2 on a fixed shift as a number or a PoleError
    (E(1,2) on D2[id] gave 0, E(2,3) a PoleError), and the functional
    paired a row-n label (D1[sigma(3,1)] on x(3,1) gave -6/7)."""
    ((kind, sigma, _),), want = FROM_TERMS[case]
    d = DistVector._raw({BasisVec(kind, sigma): Fraction(1)})
    vectors = [d, d + DistVector.from_terms(CTX, [("D2", S22, 1)])]
    f = Polynomial.variable(3, 1)  # invariant under the transposition
    if entry == "appendix_act":
        calls = [lambda gen=gen, e=e: appendix_act(CTX, gen, e)
                 for gen in all_generators(CTX.n) for e in vectors]
    else:
        calls = [lambda e=e: apply_dist(CTX, e, f) for e in vectors]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError and str(exc.value) == str(want)


def test_from_terms_applies_relations():
    d = DistVector.from_terms(CTX, [("D1", S21, Fraction(1)), ("D1", S22, Fraction(2))])
    assert d == DistVector.from_terms(CTX, [("D1", S22, Fraction(3))])
    d2 = DistVector.from_terms(CTX, [("D2", S21, Fraction(1)), ("D2", S22, Fraction(1))])
    assert d2.is_zero()
    # a zero coefficient is skipped before its label is checked
    zeros = [("D3", ID, Fraction(0)), ("D2", ID, 0), ("D1", Shift({(3, 1): 1}), 0)]
    assert DistVector.from_terms(CTX, zeros).is_zero()


def test_the_mapping_constructor_is_refused():
    """from_terms is the one public constructor.  DistVector(mapping) built
    an unreduced vector, unequal to the same distribution read through
    from_terms though the two act alike, and took D2 on a fixed shift; it
    raises TypeError naming from_terms, with a mapping or without."""
    for args in [({("D1", S21): 1},), ({("D2", ID): 1},), ()]:
        with pytest.raises(TypeError, match=r"DistVector\.from_terms"):
            DistVector(*args)
    unreduced = DistVector._raw({BasisVec("D1", S21): Fraction(1)})
    reduced = DistVector.from_terms(CTX, [("D1", S21, 1)])
    assert unreduced != reduced == DistVector.from_terms(CTX, [("D1", S22, 1)])
    for gen in all_generators(3):
        assert act_lie(CTX, gen, unreduced) == act_lie(CTX, gen, reduced)


def test_from_terms_rejects_fixed_d2():
    with pytest.raises(ValueError, match="^D2 is undefined on a transposition-fixed shift$"):
        DistVector.from_terms(CTX, [("D2", S21 * S22, Fraction(1))])


def test_d2_undefined_on_fixed_shift():
    fixed = S21 * S22
    with pytest.raises(ValueError, match="D2 is undefined"):
        materialize(CTX, BasisVec("D2", fixed))
    with pytest.raises(ValueError, match="D2 is undefined"):
        act(CTX, RingElement.one(), BasisVec("D2", fixed))
    with pytest.raises(ValueError, match="D2 is undefined"):
        label_value(CTX, "D2", fixed, Polynomial.one())
    with pytest.raises(ValueError, match="unknown distribution kind 'D3'"):
        label_value(CTX, "D3", S21, Polynomial.one())


@pytest.mark.parametrize(
    "gen, label, row",
    [
        ((2, 3), BasisVec("D1", Shift({(3, 1): 1})), 3),
        ((1, 1), BasisVec("D1", Shift({(5, 1): 1})), 5),
        ((2, 3), DistVector._raw({BasisVec("D2", S22 * Shift({(3, 2): 1})): Fraction(1)}), 3),
    ],
    ids=["row-n", "past-row-n", "row-n-in-a-vector"],
)
def test_act_refuses_a_label_outside_the_rows(gen, label, row):
    """A basis label's shift moves rows 1..n-1 only.  act reads a bare label
    or a vector's labels unreduced, so it checks the rows itself, once per
    column: a row-n label would give a vector over labels outside the
    basis, and a label past row n has no z1 line to be read on."""
    with pytest.raises(ValueError, match=rf"^shift touches row {row}, beyond rows 1\.\.2$"):
        act_lie(CTX, gen, label)


def test_functional_reports_a_failed_division(monkeypatch):
    """The antisymmetrized test function is always divisible by z1; a
    division that fails anyway is an internal error, not a value."""
    monkeypatch.setattr(distributions, "divexact", lambda p, q: None)
    with pytest.raises(InvariantViolation, match="not divisible by z1"):
        label_value(CTX, "D2", S22, Polynomial.variable(1, 1))


WRONG_KIND = {
    "act_lie-bogus": (
        lambda: act_lie(CTX, (2, 3), BasisVec("bogus", S22)), "distribution kind 'bogus'"),
    "act_lie-T": (
        lambda: act_lie(CTX, (2, 3), DistVector._raw({BasisVec("T", S22): Fraction(1)})),
        "distribution kind 'T'"),
    "materialize-bogus": (
        lambda: materialize(CTX, BasisVec("bogus", S22)), "distribution kind 'bogus'"),
    "from_terms-T": (
        lambda: DistVector.from_terms(CTX, [("T", S22, 1)]), "distribution kind 'T'"),
    "appendix_act-T": (
        lambda: appendix_act(CTX, (2, 3), DistVector._raw({BasisVec("T", ID): Fraction(1)})),
        "distribution kind 'T'"),
}


@pytest.mark.parametrize("case", WRONG_KIND)
def test_a_label_of_the_wrong_kind_raises(case):
    """A label of a kind other than D1 and D2 is refused by name, not read
    as the odd kind: act_lie, materialize and appendix_act would otherwise
    give a D2 result, and from_terms would keep the label."""
    call, kind = WRONG_KIND[case]
    with pytest.raises(ValueError, match=f"^unknown {kind}$"):
        call()


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
    assert evaluate_at_v(CTX, a) == DistVector.from_terms(CTX, [("D2", S22, Fraction(1))])

    b = RingElement([(S22, RationalFunction.constant(HALF)), (S21, RationalFunction.constant(HALF))])
    assert evaluate_at_v(CTX, b) == DistVector.from_terms(CTX, [("D1", S22, Fraction(1))])

    c = phi_general(3, 1, 1)
    assert evaluate_at_v(CTX, c) == DistVector.from_terms(CTX, [("D1", ID, CTX.v[(1, 1)])])


def test_evaluate_membership_errors():
    with pytest.raises(MembershipError, match="not invariant under the transposition"):
        evaluate_at_v(CTX, RingElement.term(ONE, S21))
    bad = RingElement([(S21, CTX.z1**-2), (S22, CTX.z1**-2)])
    with pytest.raises(MembershipError, match="higher-order pole at the base point"):
        evaluate_at_v(CTX, bad)
    # a double pole that survives the sum over sigma and tau sigma, on a D1
    # label and on a D2 label that tau moves: on the side S22 the z1 line
    # through v - m(S22) has z1 - 1 = e, on the side S21 it has z1 + 1 = e
    near, far = CTX.z1 - ONE, CTX.z1 + ONE
    moved = RingElement.term(near**-2 + far**-2, ID)
    assert is_tau_invariant(CTX, moved) and evaluate_at_v(CTX, moved)
    for bv in [BasisVec("D1", S22), BasisVec("D2", S22)]:
        with pytest.raises(MembershipError, match="higher-order pole at the base point"):
            act(CTX, moved, bv)


def test_membership_is_decided_off_the_line():
    """Each element is regular along the z1 line through v (or meets there
    only the simple pole a D1 label absorbs) but z1*h has a pole at v, so
    it is outside the ring: the action decides membership from the reduced
    denominator, not from the line."""
    x11 = RationalFunction.variable(1, 1)
    x21, x22 = RationalFunction.variable(2, 1), RationalFunction.variable(2, 2)
    v11 = RationalFunction.constant(CTX.v[(1, 1)])
    z1sq, inv_z1sq = CTX.z1 * CTX.z1, CTX.z1**-2
    c = v11 - RationalFunction.constant(CTX.v[(2, 1)])
    v21 = RationalFunction.constant(CTX.v[(2, 1)])
    outside = {
        # a numerator that vanishes at v hides a double pole from the
        # line, which reads 0 here and 1 on the second
        "vanishing numerator": (x11 - v11) * inv_z1sq,
        "regular on the line": (x11 - v11 + z1sq) * inv_z1sq,
        # a form free of the pair, constant along the line
        "constant form": ONE / (x11 - v11),
        # two forms that move along the line but are not z1: their poles
        # cancel on the line, not across it
        "moving forms": ONE / (x21 - x11 + c) + ONE / (x22 - x11 + c),
        # two forms that vanish at v, neither of them z1
        "two vanishing forms": (ONE / (x21 - v21)) * (ONE / (x22 - v21)),
    }
    for name, h in outside.items():
        a = RingElement.term(h, ID)
        assert is_tau_invariant(CTX, a), name
        with pytest.raises(MembershipError, match="higher-order pole at the base point"):
            evaluate_at_v(CTX, a)
    # on the label S11 the line runs through v - m(S11), where x11 - v11 is -1
    a = RingElement.term(outside["constant form"], ID)
    assert act(CTX, a, BasisVec("D1", S11)) == DistVector.from_terms(CTX, [("D1", S11, -1)])
    # on D1[S22] the side S22 reads A at v - m(S22), where only x21 - v21
    # vanishes: the product of the two forms has a nonzero slope along the
    # line, as a simple z1 pole would, but no z1 factor
    h = outside["two vanishing forms"]
    p = {v: c - (v == (2, 2)) for v, c in CTX.v.coords.items()}
    assert h.den.line_series(Line(p, (2, 1), (2, 2)))[0][1]
    a = RingElement.term(h, ID)
    with pytest.raises(MembershipError, match="higher-order pole at the base point"):
        act(CTX, a, BasisVec("D1", S22))


def test_membership_agrees_with_the_symbolic_product():
    """Seeded tau-invariant elements whose coefficients have poles at v and
    at the sides of the sample labels, z1-forms and others, with
    numerators that may vanish there: act raises exactly when the symbolic
    product has a coefficient z1*h with a pole at v, and otherwise gives
    its column."""
    x = {v: Polynomial.variable(*v) for v in [(1, 1), (2, 1), (2, 2), (3, 1)]}
    one, z1 = Polynomial.one(), CTX.z1_poly
    at_v = {v: Polynomial.constant(CTX.v[v]) for v in x}
    forms = [z1, z1 - one, z1 + one, z1 + one + one, x[(1, 1)] - at_v[(1, 1)],
             x[(2, 1)] - x[(1, 1)] + at_v[(1, 1)] - at_v[(2, 1)], x[(3, 1)] + one]
    nums = [one, x[(1, 1)], x[(1, 1)] - at_v[(1, 1)], x[(2, 1)] + x[(2, 2)], z1 * z1]
    shifts = [ID, S21, S22, S21 * S22, S22 * S22 * S21.inverse()]
    rng = random.Random(41)
    outcomes = set()
    for _ in range(40):
        half = RingElement.zero()
        for _ in range(2):
            h = RationalFunction.from_poly(rng.choice(nums))
            for _ in range(rng.randint(1, 2)):
                h = h * RationalFunction(one, rng.choice(forms))
            half = half + RingElement.term(h, rng.choice(shifts))
        a = half + CTX.transpose(half)
        assert is_tau_invariant(CTX, a)
        for kind, sigma in sample_basis(CTX):
            bv = BasisVec(kind, sigma)
            try:
                want = symbolic_act(CTX, a, bv)
            except PoleError:
                with pytest.raises(MembershipError, match="higher-order pole"):
                    act(CTX, a, bv)
                outcomes.add("outside")
            else:
                assert act(CTX, a, bv) == want
                outcomes.add("inside")
    assert outcomes == {"inside", "outside"}


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
        want = symbolic_act(CTX, a, ev_v)
        assert evaluate_at_v(CTX, a) == act(CTX, a, ev_v) == want


def test_materialize_roundtrip():
    for bv in [BasisVec("D1", ID), BasisVec("D1", S22), BasisVec("D2", S22)]:
        assert evaluate_at_v(CTX, materialize(CTX, bv)) == DistVector.from_terms(CTX, [(*bv, 1)])


# --- module action -------------------------------------------------------------


def test_act_unit_is_identity():
    for bv in [BasisVec("D1", ID), BasisVec("D2", S22), BasisVec("D1", S21 * S22)]:
        assert act(CTX, RingElement.one(), bv) == DistVector.from_terms(CTX, [(*bv, 1)])


def test_act_diagonal_example():
    out = act(CTX, phi_general(3, 1, 1), BasisVec("D1", ID))
    assert out == DistVector.from_terms(CTX, [("D1", ID, CTX.v[(1, 1)])])
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


def test_act_matches_symbolic_product():
    """The columns read from Laurent jets equal the symbolic product's:
    all 9 order-3 generator images times the appendix sample."""
    for a in (phi_general(3, *gen) for gen in all_generators(3)):
        for kind, sigma in appendix_sample(CTX):
            bv = BasisVec(kind, sigma)
            assert act(CTX, a, bv) == symbolic_act(CTX, a, bv)


@pytest.mark.parametrize("gen", [(3, 4), (4, 3), (1, 4)])
def test_act_matches_symbolic_product_at_order_4(gen):
    """Order 4 at the row-3 pair (3,1,2), on the module sample: the raising
    and lowering images at the singular row and E(1,4), a bracket of
    brackets."""
    ctx = SingularContext(ROW3_POINT)
    a = phi_general(4, *gen)
    for kind, sigma in sample_basis(ctx):
        bv = BasisVec(kind, sigma)
        assert act(ctx, a, bv) == symbolic_act(ctx, a, bv)


def _two_sided(second_residue):
    """A tau-invariant element with a simple pole on each side of D2[S22]
    at the target S22^2: the side S22 reads it on the z1 line through
    v - m(S22), where z1 = 1 + e, and the side S21 on the line through
    v - m(S21), where z1 = -1 + e.  The residues there are x11 and
    second_residue."""
    z1 = CTX.z1_poly
    one = Polynomial.one()
    half = RingElement([
        (S22, RationalFunction(Polynomial.variable(1, 1), z1 - one)),
        (S22 * S22 * S21.inverse(), RationalFunction(second_residue + z1 + one, z1 + one)),
    ])
    a = half + CTX.transpose(half)
    assert is_tau_invariant(CTX, a)
    return a


def test_simple_poles_cancel_across_the_two_sides():
    """With equal residues the poles cancel in the sum, at S22^2 and, by
    invariance, at S21^2: no term there is regular on its own, and the
    column equals the symbolic product's.  No D2 column of an order-3
    generator image meets a pole on either side: there every z1-form is z1
    itself, and it is +-m on a D2 side, m != 0."""
    a = _two_sided(Polynomial.variable(1, 1))
    bv = BasisVec("D2", S22)
    singular: dict = {}
    for side, w in distributions._basis_sides(CTX, bv):
        coords = dict(CTX.v.coords)
        for pos, m in side.terms.items():
            coords[pos] -= m
        zform = CTX.z1_poly - Polynomial.constant(coords[(2, 1)] - coords[(2, 2)])
        for rho, h in a.terms.items():
            jet = distributions._side_jet(h, (Line(coords, (2, 1), (2, 2)), zform))
            if distributions._read_jet(jet, 0) is None:
                singular.setdefault(side * rho, []).append(side)
    assert singular == {t: [S22, S21] for t in (S22 * S22, S21 * S21)}
    column = act(CTX, a, bv)
    assert column and column == symbolic_act(CTX, a, bv)


def _jet_cases(ctx, rng):
    """Seeded tau-invariant rational functions as (numerator, denominator
    factors), by the kind of their denominator: regular on every sample
    line (or none, a polynomial); a simple z1 pole on the lines where z1 is
    +-1 or +-2; a pole on a form that is not a z1-form (constant along the
    line, or the pair (x_i - c)(x_j - c), which crosses it); a double z1
    pole.  A numerator is p + tau(p), so the numerator and the product of
    the factors are tau-invariant."""
    x11 = Polynomial.variable(1, 1)
    xi, xj = Polynomial.variable(*ctx.pos_i), Polynomial.variable(*ctx.pos_j)
    z, one, c = ctx.z1_poly, Polynomial.one(), Polynomial.constant
    vi, v11 = ctx.v[ctx.pos_i], ctx.v[(1, 1)]
    # x_i + x_j at v - m(side) is 2 vi - m_i - m_j
    s = xi + xj - c(2 * vi)
    kinds = {
        "regular": [[], [z - c(HALF), z + c(HALF), s + c(HALF)]],
        "simple z1 pole": [[z - one, z + one], [z - c(2), z + c(2), x11 - c(v11 + 1)]],
        "other pole": [[x11 - c(v11)], [s + one], [xi - c(vi - 1), xj - c(vi - 1)]],
        "double z1 pole": [[z, z], [z - one, z + one, z - one, z + one]],
    }
    for kind, dens in kinds.items():
        for factors in dens:
            p = random_polynomial(rng, ctx.n, max_terms=2, max_deg=2, zero_ok=False)
            yield kind, p + ctx.transpose(p), factors


def _sympy_jet(num, den, zsym, base, pair):
    """The Laurent jet of num / den, a reduced sympy fraction, on the z1
    line through base, by sympy alone: the category from den (regular when
    it does not vanish at base, a simple pole when it is zsym times one
    that does not), the coefficients from sympy.series in e."""
    at = {sympy.Symbol(f"x_{k}_{i}"): sympy.Rational(x.numerator, x.denominator)
          for (k, i), x in base.items()}
    if den.xreplace(at) != 0:
        pole = False
    else:
        q, r = sympy.div(den, zsym, *sorted(at, key=str))
        if r != 0 or q.xreplace(at) == 0:
            return None
        pole = True
    e = sympy.Symbol("e")
    xi, xj = (sympy.Symbol(f"x_{k}_{i}") for k, i in pair)
    line = {**at, xi: at[xi] + e / 2, xj: at[xj] - e / 2}
    series = sympy.series(sympy.cancel(num.xreplace(line) / den.xreplace(line)), e, 0, 2).removeO()
    lo = -1 if pole else 0
    return pole, series.coeff(e, lo), series.coeff(e, lo + 1)


def _jet_value(jet):
    """An integer jet (pole, lo, hi, q) of `_side_jet` by value, (pole,
    lo/q, hi/q), once it is checked to be canonical: q > 0 and
    gcd(lo, hi, q) = 1."""
    if jet is None:
        return None
    pole, lo, hi, q = jet
    assert all(type(x) is int for x in (lo, hi, q)), jet
    assert q > 0 and math.gcd(lo, hi, q) == 1, jet
    return pole, Fraction(lo, q), Fraction(hi, q)


def _read_value(jet, lift):
    """`_read_jet`'s (g_0, g_1, q) by value, (g_0/q, g_1/q)."""
    g = distributions._read_jet(jet, lift)
    return None if g is None else (Fraction(g[0], g[2]), Fraction(g[1], g[2]))


@pytest.mark.parametrize("where", ["shipped", "row 3"])
def test_side_jet_matches_sympy_series(where):
    """`_side_jet` on every side line of the module sample against
    sympy.series in e along the line, for seeded tau-invariant functions
    with each kind of denominator, a product of linear forms: regular jets
    give (c0, c1), simple z1 poles (c_-1, c0), anything else None.  Each kind reads its
    pair of e^lift h from the one jet: D2 (lift 0) the series of h when h
    is regular, D1 (lift 1) the series of e h when h has at most a simple
    pole.  Jets are integers over one denominator, compared by value and
    checked canonical."""
    ctx = CTX if where == "shipped" else SingularContext(ROW3_POINT)
    rng = random.Random(61 if where == "shipped" else 62)
    cases = []
    for kind, num, factors in _jet_cases(ctx, rng):
        reduced = sympy.fraction(sympy.cancel(to_sympy(num) / sympy.Mul(*map(to_sympy, factors))))
        h = RationalFunction.from_poly(num)
        for f in factors:
            h = h * RationalFunction(Polynomial.one(), f)
        cases.append((kind, reduced, h))
    sides = {side for kind, sigma in sample_basis(ctx)
             for side, _ in distributions._basis_sides(ctx, BasisVec(kind, sigma))}
    xi, xj = (sympy.Symbol(f"x_{k}_{i}") for k, i in (ctx.pos_i, ctx.pos_j))
    seen = set()
    for side in sides:
        base = dict(ctx.v.coords)
        for pos, m in side.terms.items():
            base[pos] -= m
        zsym = xi - xj - sympy.Rational(base[ctx.pos_i] - base[ctx.pos_j])
        line = distributions._side_line(ctx, side)
        for kind, reduced, h in cases:
            want = _sympy_jet(*reduced, zsym, base, (ctx.pos_i, ctx.pos_j))
            seen.add((kind, None if want is None else want[0]))
            d2 = d1 = None
            if want is not None:
                pole, lo, hi = want
                d2 = None if pole else (lo, hi)
                d1 = (lo, hi) if pole else (0, lo)
            jet = distributions._side_jet(h, line)
            assert _jet_value(jet) == want, (side, kind)
            assert _read_value(jet, 0) == d2, (side, kind)
            assert _read_value(jet, 1) == d1, (side, kind)
    assert {("regular", False), ("simple z1 pole", True), ("other pole", None),
            ("double z1 pole", None)} <= seen
    assert not {("regular", True), ("regular", None), ("double z1 pole", True)} & seen


def _expanded_jet(h, line, base, pair):
    """h's jet on the line through base read from its expanded numerator
    and denominator: the numerator's series by `Polynomial.line_series`,
    the denominator's to order 2 by the Taylor oracle, and the same
    formulas as `_side_jet`."""
    zform = line[1]
    den = taylor_series(h.den, base, *pair, 2)
    pole = not den[0]
    if pole:
        if not den[1] or ratfun._monic_form(zform)[1] not in h.forms:
            return None
        den = den[1:]
    (n0, n1), nd = h.num.line_series(line[0])
    n0, n1, d0 = Fraction(n0, nd), Fraction(n1, nd), den[0]
    return pole, n0 / d0, (n1 * d0 - den[1] * n0) / (d0 * d0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_side_jet_from_factors_matches_the_expanded_series(n):
    """Every off-diagonal image coefficient of order n, on every side line
    of the module sample at the shipped point, at the row-3 pair (3,1,2)
    of ROW3_POINT and at (2,1,2) of ORDER5_POINT: the jet read from the
    numerator's factors equals the jet read from its terms and the jet of
    the expanded numerator and denominator, the denominator's series by the
    Taylor oracle on the side's base point v - m(side).  `scale(c)` keeps the
    factors with the unit times c, for c = -1 and a non-integer c, and the
    scaled image's jets and columns are the image's times c.  Regular jets
    and simple poles both occur.  A copy of the image whose coefficients
    carry no factors acts with the same columns.  Jets are integers over
    one denominator, compared by value and checked canonical."""
    ctx = {3: CTX, 4: SingularContext(ROW3_POINT),
           5: SingularContext(ORDER5_POINT)}[n]
    labels = [BasisVec(kind, sigma) for kind, sigma in sample_basis(ctx)]
    sides = {side for bv in labels for side, _ in distributions._basis_sides(ctx, bv)}
    lines, pair = [], (ctx.pos_i, ctx.pos_j)
    for side in sides:
        base = dict(ctx.v.coords)
        for pos, m in side.terms.items():
            base[pos] -= m
        lines.append((distributions._side_line(ctx, side), base))
    seen = set()
    for r, s in all_generators(n):
        if r == s:
            continue
        image = phi_general(n, r, s)
        scaled = [(c, image.scale(c)) for c in (-1, Fraction(-2, 3))]
        bare = RingElement._raw({rho: RationalFunction._make(h.num, h.forms)
                                 for rho, h in image.terms.items()})
        for rho, h in image.terms.items():
            unit, forms = h._num_forms
            for c, multiple in scaled:
                assert multiple.terms[rho]._num_forms == (unit * c, forms)
            assert bare.terms[rho]._num_forms is None
            for line, base in lines:
                want = _expanded_jet(h, line, base, pair)
                assert _jet_value(distributions._side_jet(h, line)) == want
                assert _jet_value(distributions._side_jet(bare.terms[rho], line)) == want
                for c, multiple in scaled:
                    got = _jet_value(distributions._side_jet(multiple.terms[rho], line))
                    assert got == (None if want is None else (want[0], c * want[1], c * want[2]))
                seen.add(None if want is None else want[0])
        for bv in labels:
            column = act(ctx, bare, bv)
            assert act(ctx, image, bv) == column, (r, s, bv)
            for c, multiple in scaled:
                assert act(ctx, multiple, bv) == column.scale(c), (r, s, bv, c)
    assert {False, True} <= seen


def test_a_sum_of_images_with_disjoint_shifts_keeps_the_factors():
    """E(1,3) + E(2,4) at order 4: the two images share no shift, so the
    sum's coefficients are the images' own, with their numerator factors,
    and the sum acts through them with the columns of a copy whose
    coefficients carry none, at the row-3 pair (3,1,2) of ROW3_POINT."""
    ctx = SingularContext(ROW3_POINT)
    a, b = phi_general(4, 1, 3), phi_general(4, 2, 4)
    total = a + b
    assert not a.terms.keys() & b.terms.keys()
    assert len(total.terms) == len(a.terms) + len(b.terms)
    for rho, h in total.terms.items():
        assert h is (a.terms.get(rho) or b.terms[rho]) and h._num_forms is not None
    bare = RingElement._raw({rho: RationalFunction._make(h.num, h.forms)
                             for rho, h in total.terms.items()})
    for kind, sigma in sample_basis(ctx):
        bv = BasisVec(kind, sigma)
        assert act(ctx, total, bv) == act(ctx, bare, bv), bv


def test_poles_that_cancel_only_at_v_are_rejected():
    """Residues x11 and v11 agree at v but not across the z1 hyperplane,
    so the sum keeps a pole at v: the line through v alone would cancel it."""
    a = _two_sided(Polynomial.constant(CTX.v[(1, 1)]))
    with pytest.raises(MembershipError, match="higher-order pole at the base point"):
        act(CTX, a, BasisVec("D2", S22))


def test_act_checks_invariance_of_the_acting_element():
    for bv in [BasisVec("D1", ID), BasisVec("D2", S22)]:
        with pytest.raises(MembershipError, match="not invariant under the transposition"):
            act(CTX, RingElement.term(ONE, S21), bv)


def _record_calls(monkeypatch, name):
    """Patch distributions.<name> to record the arguments of every call."""
    calls = []
    real = getattr(distributions, name)

    def recorded(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(distributions, name, recorded)
    return calls


def _copy(a):
    """An element equal to a but distinct from it, with an empty memo."""
    return RingElement(a.terms)


def test_act_lie_columns_match_act(cold_ctx, monkeypatch):
    """act_lie sums the columns memoized on the image; the first call fills
    them and the second is served from the memo, and both equal the direct
    action of an equal, distinct element.  Each image is checked for
    invariance once per context."""
    ctx = cold_ctx
    vectors = [DistVector.from_terms(ctx, [(kind, sigma, 1)]) for kind, sigma in appendix_sample(ctx)]
    terms = [("D1", ID, Fraction(2)), ("D2", S22, Fraction(-3, 4)), ("D2", S21 * S11, Fraction(5))]
    vectors.append(DistVector.from_terms(ctx, terms))
    checks = _record_calls(monkeypatch, "is_tau_invariant")
    columns = _record_calls(monkeypatch, "_column")
    for gen in all_generators(3):
        a = phi_general(3, *gen)
        for d in vectors:
            want = act(ctx, _copy(a), d)
            assert act_lie(ctx, gen, d) == want
            filled = len(columns)
            assert act_lie(ctx, gen, d) == want
            assert len(columns) == filled
    images = [a for _, a in checks if any(a is phi_general(3, *g) for g in all_generators(3))]
    assert len(images) == len({id(a) for a in images}) == len(all_generators(3))


@pytest.fixture
def cold_ctx():
    """A context equal to CTX in which no element has acted yet, so every
    image's memo starts cold in it."""
    return SingularContext(CTX.v)


def patch_image(monkeypatch, gen, image):
    """act_lie reads `image` as the image of gen."""
    real = distributions.phi_general
    monkeypatch.setattr(
        distributions, "phi_general", lambda n, r, s: image if (r, s) == gen else real(n, r, s)
    )


@pytest.mark.parametrize("d2_first", [False, True])
def test_shared_jets_serve_both_kinds(cold_ctx, d2_first):
    """One jet per coefficient and side serves the D1 and D2 columns of a
    shift.  Asked in either order on cold memos, every column of every
    order-3 image equals the action of a fresh copy, which reads only that
    column's jets, and the symbolic product.  The tau-fixed D1 labels have
    one side, on which four images have simple poles."""
    ctx = cold_ctx
    kinds = ("D2", "D1") if d2_first else ("D1", "D2")
    labels = [BasisVec("D1", sigma) for sigma in (ID, S21 * S22)]
    for sigma in (S22, S22 * S22, S21.inverse() * S22, S11 * S22):
        labels += [BasisVec(kind, sigma) for kind in kinds]
    for gen in all_generators(3):
        a = phi_general(3, *gen)
        for bv in labels:
            assert act_lie(ctx, gen, bv) == act(ctx, _copy(a), bv) == symbolic_act(ctx, a, bv)
    with_poles = {
        gen
        for gen in all_generators(3)
        for jets in phi_general(3, *gen)._act[ctx][0].values()
        if any(jet is not None and jet[0] for _, jet in jets)
    }
    assert with_poles == {(1, 3), (2, 3), (3, 1), (3, 2)}


def _one_sided():
    """A tau-invariant element with a simple pole on each side of D2[S22],
    at the target S22^2 on the side S22 and at S21^2 on the side S21, so
    no other term cancels it."""
    z1 = CTX.z1_poly
    half = RingElement.term(RationalFunction(Polynomial.variable(1, 1), z1 - Polynomial.one()), S22)
    a = half + CTX.transpose(half)
    assert is_tau_invariant(CTX, a)
    return a


@pytest.mark.parametrize("d2_first", [False, True])
def test_shared_pole_jets_stay_with_d1(cold_ctx, monkeypatch, d2_first):
    """A D1 column absorbs a simple pole that a D2 column cannot.  With an
    image that has a simple pole on each side of the shift S22, a jet
    stored for one kind gives the other kind its own reading, in either
    order: D1 reads it, and D2 sums the target symbolically, which is
    regular when the poles cancel and a MembershipError when they do not.
    Each patched image is a new element, so its memo starts cold."""
    ctx = cold_ctx
    gen = (1, 2)
    kinds = ("D2", "D1") if d2_first else ("D1", "D2")
    cancelling = _two_sided(Polynomial.variable(1, 1))
    patch_image(monkeypatch, gen, cancelling)
    for kind in kinds:
        bv = BasisVec(kind, S22)
        want = symbolic_act(ctx, cancelling, bv)
        assert want and act_lie(ctx, gen, bv) == act(ctx, _copy(cancelling), bv) == want
    lone = _one_sided()
    patch_image(monkeypatch, gen, lone)
    for kind in kinds:
        bv = BasisVec(kind, S22)
        if kind == "D1":
            assert act_lie(ctx, gen, bv) == act(ctx, _copy(lone), bv) == symbolic_act(ctx, lone, bv)
            continue
        for action in (lambda: act_lie(ctx, gen, bv), lambda: act(ctx, _copy(lone), bv)):
            with pytest.raises(MembershipError, match="higher-order pole"):
                action()
        with pytest.raises(PoleError):
            symbolic_act(ctx, lone, bv)
    assert set(lone._act[ctx][0]) == {S22, S21}


def test_act_lie_rejects_an_image_that_is_not_invariant(cold_ctx, monkeypatch):
    """An image that fails the invariance check raises MembershipError on a
    cold memo and, once the other images have filled their memos, on a warm
    one, on every call: no failed check is memoized."""
    ctx = cold_ctx
    gen = (2, 3)
    image = RingElement.term(ONE, S21)
    patch_image(monkeypatch, gen, image)
    labels = [BasisVec("D1", ID), BasisVec("D2", S22)]
    with pytest.raises(MembershipError, match="not invariant under the transposition"):
        act_lie(ctx, gen, labels[0])
    for other in all_generators(3):
        if other != gen:
            for bv in labels:
                act_lie(ctx, other, bv)
    checks = _record_calls(monkeypatch, "is_tau_invariant")
    for _ in range(2):
        for bv in labels:
            with pytest.raises(MembershipError, match="not invariant under the transposition"):
                act_lie(ctx, gen, bv)
    assert len(checks) == 4 and ctx not in image._act


def test_an_equal_but_distinct_element_is_checked_again(cold_ctx, monkeypatch):
    """The memo lives on the element, not on its value: an equal copy is
    checked and read afresh, and gets an equal column of its own."""
    ctx = cold_ctx
    checks = _record_calls(monkeypatch, "is_tau_invariant")
    a = phi_general(3, 2, 3)
    bv = BasisVec("D2", S22)
    column = act(ctx, a, bv)
    assert act(ctx, a, bv) is column and act_lie(ctx, (2, 3), bv) is column
    assert len(checks) == 1
    b = _copy(a)
    assert b == a and b is not a
    other = act(ctx, b, bv)
    assert other == column and other is not column
    assert [x for _, x in checks] == [a, b]
    assert checks[0][1] is a and checks[1][1] is b


def test_act_lie_columns_are_per_context():
    """Contexts at different points keep their own columns."""
    other = SingularContext(
        Point.from_rows(
            [
                [Fraction(1, 17)],
                [Fraction(2, 3), Fraction(2, 3)],
                [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)],
            ]
        )
    )
    bv = BasisVec("D1", ID)
    for ctx in (CTX, other, CTX):
        assert act_lie(ctx, (1, 1), bv) == DistVector.from_terms(ctx, [(*bv, ctx.v[(1, 1)])])
        assert act_lie(ctx, (2, 3), bv) == act(ctx, phi_general(3, 2, 3), bv)
    assert act_lie(CTX, (2, 3), bv) != act_lie(other, (2, 3), bv)


def _weighted_vectors(ctx, rng):
    """Vectors over the module sample with non-unit Fraction coefficients:
    a few multi-term ones, one holding a unit coefficient among others, and
    a one-label vector with coefficient 2/3."""
    labels = sample_basis(ctx)

    def coeff():
        while True:
            c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(2, 9))
            if c.denominator != 1:
                return c

    vectors = []
    for size in (2, 3, 4):
        picked = rng.sample(labels, size)
        vectors.append(DistVector.from_terms(ctx, [(k, s, coeff()) for k, s in picked]))
    (k1, s1), (k2, s2) = rng.sample(labels, 2)
    vectors.append(DistVector.from_terms(ctx, [(k1, s1, Fraction(1)), (k2, s2, coeff())]))
    kind, sigma = labels[-1]
    vectors.append(DistVector.from_terms(ctx, [(kind, sigma, Fraction(2, 3))]))
    return vectors


@pytest.mark.parametrize(
    "where, gens",
    [
        ("shipped", None),
        ("row 3", [(3, 4), (4, 3), (1, 4), (2, 2)]),
    ],
    ids=["shipped", "row 3"],
)
def test_act_lie_on_vectors_matches_the_symbolic_product(where, gens):
    """On vectors with non-unit coefficients, act_lie equals the
    combination of symbolic-product columns, sum of c * symbolic_act(B),
    over the module sample at the shipped point (every order-3 generator)
    and at the row-3 pair (3,1,2) of ROW3_POINT."""
    ctx = CTX if where == "shipped" else SingularContext(ROW3_POINT)
    vectors = _weighted_vectors(ctx, random.Random(26))
    assert all(c.denominator != 1 for d in vectors[:3] for c in d.terms.values())
    for gen in gens or all_generators(3):
        a = phi_general(ctx.n, *gen)
        for d in vectors:
            want = DistVector.zero()
            for bv, c in d.terms.items():
                want = want + symbolic_act(ctx, a, bv).scale(c)
            assert act_lie(ctx, gen, d) == want


def _cancelling(column, labels):
    """Two labels with coefficients 1 and -x/y, where x and y are their
    columns' coefficients on a key both columns hold, and that key: their
    contributions there cancel."""
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1:]:
            c1, c2 = column(l1).terms, column(l2).terms
            for key in c1.keys() & c2.keys():
                return {l1: Fraction(1), l2: -c1[key] / c2[key]}, key
    raise AssertionError("no two columns share a key")


def _check_integer_sums(column, vectors, cancelled):
    """Each vector's image equals the Fraction reference, the sum of
    column(label).scale(c) by `+`, and stores only Fraction coefficients;
    the last vector's contributions on the key `cancelled` cancel."""
    for d in vectors:
        want = type(d).zero()
        for label, c in d.terms.items():
            want = want + column(label).scale(c)
        got = distributions._linear(column, d)
        assert got == want, d
        assert all(type(x) is Fraction for x in got.terms.values()), d
    assert cancelled not in got.terms


GENERIC_POINT_4 = Point.from_rows([
    [Fraction(1, 5)],
    [Fraction(1, 3), Fraction(1, 7)],
    [Fraction(1, 11), Fraction(2, 13), Fraction(3, 17)],
    [Fraction(1, 19), Fraction(2, 23), Fraction(3, 29), Fraction(5, 31)],
])


@pytest.mark.parametrize("where", ["shipped", "row 3"])
def test_integer_sums_match_the_fraction_reference(where):
    """act and generic_act sum a multi-label vector's scaled columns per key
    as integers over one denominator: the result equals the Fraction
    reference, sum of c * column(label) by `SparseSum.scale` and `+`, on
    mixed denominators, an int coefficient, the zero vector, and
    contributions that cancel on a key (which is absent).  Checked at the
    shipped point and at the row-3 pair (3,1,2) of ROW3_POINT, with a
    generic point of the same order, for images whose support holds shifts
    rho != tau rho with both present: in ev_v o A their targets meet on one
    representative, where the integer sums are added, and the column
    equals the symbolic product's."""
    ctx = CTX if where == "shipped" else SingularContext(ROW3_POINT)
    x = GENERIC_POINT_3 if ctx.n == 3 else GENERIC_POINT_4
    assert classify_point(x).tag == "Generic"
    labels = [BasisVec(kind, sigma) for kind, sigma in sample_basis(ctx)]
    labels += [BasisVec("D1", bv.sigma) for bv in labels if bv.kind == "D2"]
    l1, l2, l3 = labels[:3]
    gens = [(2, 3), (3, 1), (3, 2), (1, 3)] if ctx.n == 3 else [(4, 3), (1, 4), (3, 4), (4, 2)]
    for gen in gens:
        a = phi_general(ctx.n, *gen)
        assert any(ctx.transpose(rho) != rho and ctx.transpose(rho) in a.terms
                   for rho in a.terms), gen
        assert evaluate_at_v(ctx, a) == symbolic_act(ctx, a, distributions._EV_V)
        column = lambda bv: act(ctx, a, bv)  # noqa: E731
        pair, cancelled = _cancelling(column, labels)
        _check_integer_sums(column, [
            DistVector.from_terms(
                ctx, [(*l1, Fraction(2, 3)), (*l2, Fraction(-5, 7)), (*l3, Fraction(3, 4))]
            ),
            DistVector.zero(),
            DistVector.from_terms(ctx, [(*label, c) for label, c in pair.items()]),
        ], cancelled)
        # the image's own shifts as labels: each column holds the identity
        shifts = list(dict.fromkeys([Shift.identity(), Shift({(2, 1): 1}), *a.terms]))
        y1, y2, y3 = shifts[:3]
        vectors = [
            OrbitVector({y1: Fraction(2, 3), y2: Fraction(-5, 7), y3: Fraction(3, 4)}),
            OrbitVector({y1: 2, y2: Fraction(-1, 3)}),
            OrbitVector.zero(),
        ]
        assert type(vectors[1].terms[y1]) is int
        column = lambda y: generic_act(x, gen, y)  # noqa: E731
        pair, cancelled = _cancelling(column, shifts)
        _check_integer_sums(column, [*vectors, OrbitVector(pair)], cancelled)
        for d in vectors:
            assert generic_act(x, gen, d) == generic_act_element(x, a, d)


def test_a_unit_label_returns_its_memoized_column():
    """A one-label vector with coefficient 1 is its label: act_lie returns
    the column memoized on the image itself, and so does generic_act on a
    one-label orbit vector."""
    for kind, sigma in sample_basis(CTX):
        bv = BasisVec(kind, sigma)
        for gen in [(1, 2), (2, 3), (2, 2)]:
            column = act_lie(CTX, gen, bv)
            assert phi_general(3, *gen)._act[CTX][1][bv] is column
            assert act_lie(CTX, gen, DistVector.from_terms(CTX, [(*bv, 1)])) is column
            assert act_lie(CTX, gen, bv) is column
    x = GENERIC_POINT_3
    for y in GENERIC_LABELS_3:
        for gen in [(1, 2), (3, 1)]:
            column = distributions._generic_column(x, *gen, y)
            assert generic_act(x, gen, OrbitVector({y: 1})) is column


def test_column_rejects_d2_on_a_fixed_target():
    """_column reduces each target once and raises on a nonzero D2
    coefficient at a tau-fixed target, the failure act's invariance check
    rules out.  Reached here by calling _column on a non-invariant element
    directly: B = D2[S22] has the sides S22 and S21, and the term 1 * S21
    lands on the fixed target S22 S21 from one side only."""
    a = RingElement.term(ONE, S21)
    assert not is_tau_invariant(CTX, a)
    fixed = S22 * S21
    with pytest.raises(InvariantViolation) as exc:
        distributions._column(CTX, a, BasisVec("D2", S22), {})
    assert str(exc.value) == f"nonzero D2 coefficient 1/2 on transposition-fixed shift {fixed!r}"


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
    assert label_value(CTX, "D1", ID, f) == Fraction(5, 7)
    assert label_value(CTX, "D2", S21, z1sq) == -2
    assert label_value(CTX, "D2", S22, z1sq) == 2
    for sigma in [ID, S11, S21, S21 * S22, S22**2]:
        assert label_value(CTX, "D1", sigma, Polynomial.one()) == 1


def test_functional_requires_invariance():
    with pytest.raises(ValueError):
        apply_dist(CTX, DistVector.from_terms(CTX, [("D1", ID, 1)]), Polynomial.variable(2, 1))


def test_relations_as_functionals():
    rng = random.Random(9)
    for _ in range(10):
        f = random_invariant_polynomial(rng, CTX)
        sigma = Shift({(1, 1): rng.randint(-2, 2), (2, 1): rng.randint(-2, 2), (2, 2): rng.randint(-2, 2)})
        tau_sigma = CTX.transpose(sigma)
        assert label_value(CTX, "D1", tau_sigma, f) == label_value(CTX, "D1", sigma, f)
        if sigma != tau_sigma:
            assert label_value(CTX, "D2", tau_sigma, f) == -label_value(
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
            assert label_value(CTX, "D1", sigma, one) == 1
            assert label_value(CTX, "D1", sigma, z1sq) == c * c
            if c != 0:
                assert label_value(CTX, "D2", sigma, one) == 0
                assert label_value(CTX, "D2", sigma, z1sq) == -2 * c


def closed_form(ctx, kind, sigma, f):
    """The functional's closed formula: (f(sigma) + f(tau sigma)) / 2 at v
    for D1, (f(sigma) - f(tau sigma)) / (2 z1) at v for D2, the quotient
    reduced as a rational function."""
    v = ctx.v.coords
    a, b = shift_subst(f, sigma), shift_subst(f, ctx.transpose(sigma))
    if kind == "D1":
        return (a.evaluate(v) + b.evaluate(v)) * HALF
    return (RationalFunction.from_poly(a - b) / ctx.z1).evaluate(v) * HALF


@pytest.mark.parametrize("where", ["order3", "order4"])
def test_functional_matches_the_closed_formula(where):
    """On every appendix sample label and its unordered partner, and on
    random labels of rows 1..n-1, the functional read through the label's
    sides equals the closed formula exactly, and apply_dist is the same
    sum."""
    ctx = CTX if where == "order3" else SingularContext(ROW3_POINT)
    rng = random.Random(44)
    rows = [p for p in ctx.v.coords if p[0] < ctx.n]
    labels = []
    for kind, sigma in appendix_sample(ctx):
        labels += [(kind, sigma), (kind, ctx.transpose(sigma))]
    for _ in range(12):
        sigma = Shift({p: rng.randint(-2, 2) for p in rows})
        fixed = ctx.transpose(sigma) == sigma
        labels.append(("D1" if fixed else rng.choice(["D1", "D2"]), sigma))
    tests = [f for f in (random_invariant_polynomial(rng, ctx) for _ in range(6)) if f]
    assert len(tests) >= 3
    for f in tests:
        want = {label: closed_form(ctx, *label, f) for label in labels}
        for (kind, sigma), value in want.items():
            assert label_value(ctx, kind, sigma, f) == value
        d = DistVector._raw({BasisVec(*label): Fraction(i + 1) for i, label in enumerate(want)})
        assert apply_dist(ctx, d, f) == sum((i + 1) * x for i, x in enumerate(want.values()))


def test_a_fixed_d1_label_pairs_to_one_value(monkeypatch):
    """A tau-fixed D1 label is one side of weight 1: it pairs to f(sigma)
    at v, read once."""
    rng = random.Random(45)
    shifted = []

    def counting(f, sigma):
        shifted.append(sigma)
        return shift_subst(f, sigma)

    monkeypatch.setattr(distributions, "shift_subst", counting)
    for sigma in [ID, S11, S21 * S22, S11 * S21**2 * S22**2]:
        f = random_invariant_polynomial(rng, CTX)
        want = shift_subst(f, sigma).evaluate(CTX.v.coords)
        shifted.clear()
        assert label_value(CTX, "D1", sigma, f) == want
        assert shifted == [sigma]
        assert apply_dist(CTX, DistVector.from_terms(CTX, [("D1", sigma, 3)]), f) == 3 * want


def test_apply_dist_checks_the_test_function_once(monkeypatch):
    """The invariance of f is checked once per call, not once per label."""
    f = random_invariant_polynomial(random.Random(47), CTX)
    d = DistVector.from_terms(CTX, [(kind, sigma, 1) for kind, sigma in appendix_sample(CTX)])
    assert f and len(d.terms) > 1
    calls = []
    real = SingularContext.transpose
    monkeypatch.setattr(SingularContext, "transpose", lambda ctx, x: calls.append(x) or real(ctx, x))
    apply_dist(CTX, d, f)
    # the labels' shifts pass through transpose too (`_basis_sides`)
    assert [x for x in calls if not isinstance(x, Shift)] == [f]


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
    """D1[id] is the symbol T(v): E(1,1) multiplies it by v(1,1)."""
    e = DistVector.from_terms(CTX, [("D1", ID, 1)])
    out = appendix_act(CTX, (1, 1), e)
    assert out == DistVector.from_terms(CTX, [("D1", ID, CTX.v[(1, 1)])])


def test_appendix_relation_sanity():
    """D2 is DT: tau-odd, so D2[tau sigma] = -D2[sigma], and undefined on a
    tau-fixed shift.  The oracle read on an unordered D2 label agrees."""
    e = DistVector.from_terms(CTX, [("D2", S21, Fraction(1)), ("D2", S22, Fraction(1))])
    assert e.is_zero()
    with pytest.raises(ValueError, match="^D2 is undefined on a transposition-fixed shift$"):
        DistVector.from_terms(CTX, [("D2", S21 * S22, Fraction(1))])
    assert DistVector.from_terms(CTX, [("D2", S21 * S22, Fraction(0))]).is_zero()
    unordered = DistVector._raw({BasisVec("D2", S21): Fraction(1)})
    for gen in [(2, 3), (3, 2), (1, 2)]:
        out = appendix_act(CTX, gen, unordered)
        assert out and out == -appendix_act(CTX, gen, DistVector.from_terms(CTX, [("D2", S22, 1)]))
        assert out == act_lie(CTX, gen, unordered)


def test_appendix_skips_the_odd_value_on_a_fixed_target():
    """E(2,3) on D2[sigma(2,2)]: the term at shift sigma(2,2)^-1 lands on
    the tau-fixed target id with a nonzero value.  That value would be the
    DT coefficient there, but DT(v + tau z) = -DT(v + z) makes DT zero on
    a fixed shift, so the oracle skips it and still agrees with act_lie.
    Kept, it makes from_terms raise; dropped, from_terms gives the
    oracle's result."""
    gen, d = (2, 3), DistVector.from_terms(CTX, [("D2", S22, 1)])
    image = phi_general(3, *gen)
    h = image.terms[Shift.generator(2, 2, -1)]
    value, _ = distributions._value_and_slope(CTX, shift_subst(h, S22))
    assert value == Fraction(-2380, 3861)
    out = appendix_act(CTX, gen, d)
    assert BasisVec("D2", ID) not in out.terms
    assert out == act_lie(CTX, gen, d)
    terms = []
    for rho, h in image.terms.items():
        value, slope = distributions._value_and_slope(CTX, shift_subst(h, S22))
        terms += [("D1", S22 * rho, slope), ("D2", S22 * rho, value)]
    with pytest.raises(ValueError, match="^D2 is undefined on a transposition-fixed shift$"):
        DistVector.from_terms(CTX, terms)
    skipped = [t for t in terms if t[0] == "D2" and CTX.transpose(t[1]) == t[1]]
    assert skipped == [("D2", ID, Fraction(-2380, 3861))]
    assert DistVector.from_terms(CTX, [t for t in terms if t not in skipped]) == out


@pytest.mark.parametrize("where", ["order3", "order4"])
def test_value_and_slope_match_the_symbolic_derivative(where):
    """The appendix reads each coefficient's value and z1-slope at v by
    the quotient rule over the denominator's forms: on every image
    coefficient shifted by each appendix sample shift, as it is and times
    z1, both equal the quotient rule on the expanded numerator and
    denominator exactly.  Where a form vanishes at v, both raise
    PoleError."""
    ctx = CTX if where == "order3" else SingularContext(ROW3_POINT)
    v = ctx.v.coords
    poles = 0
    for gen in all_generators(ctx.n):
        for h in phi_general(ctx.n, *gen).terms.values():
            for _, sigma in appendix_sample(ctx):
                g = shift_subst(h, sigma)
                for g in (g, g * ctx.z1):
                    if any(form.evaluate(v) == 0 for form in g.forms):
                        poles += 1
                        with pytest.raises(PoleError):
                            distributions._value_and_slope(ctx, g)
                        with pytest.raises(PoleError):
                            z1_value_and_slope(ctx, g)
                        continue
                    assert distributions._value_and_slope(ctx, g) == z1_value_and_slope(ctx, g)
    assert poles


def test_z1_value_and_slope_matches_sympy():
    """The expanded quotient rule of the tests against sympy, on seeded
    order-3 image coefficients shifted by an appendix sample shift, as they
    are or times z1: sympy's value is N/D and its slope the derivative
    (d/dx(2,1) - d/dx(2,2))/2 of N/D, both read at v.  A coefficient with
    a pole at v raises PoleError."""
    rng = random.Random(47)
    v = CTX.v.coords
    at = {sympy.Symbol(f"x_{k}_{i}"): sympy.Rational(x.numerator, x.denominator)
          for (k, i), x in v.items()}
    xi, xj = (sympy.Symbol(f"x_{k}_{i}") for k, i in (CTX.pos_i, CTX.pos_j))
    coefficients = [h for gen in all_generators(3) for h in phi_general(3, *gen).terms.values()]
    shifts = [sigma for _, sigma in appendix_sample(CTX)]
    checked = 0
    while checked < 12:
        g = shift_subst(rng.choice(coefficients), rng.choice(shifts))
        if rng.random() < 0.5:
            g = g * CTX.z1
        if g.den.evaluate(v) == 0:
            continue
        expr = to_sympy(g.num) / to_sympy(g.den)
        slope = (sympy.diff(expr, xi) - sympy.diff(expr, xj)) / 2
        got = [sympy.Rational(x.numerator, x.denominator) for x in z1_value_and_slope(CTX, g)]
        assert got == [expr.subs(at), slope.subs(at)]
        checked += 1
    pole = next(h for h in phi_general(3, 2, 3).terms.values() if h.den.evaluate(v) == 0)
    with pytest.raises(PoleError):
        z1_value_and_slope(CTX, pole)


def test_a_wrong_sign_in_the_value_rule_fails_the_appendix(monkeypatch):
    """Negative control: with the sign of the quotient rule's sum turned,
    the appendix suite at the shipped context reports failures."""
    real = distributions._value_and_slope

    def turned(ctx, g):
        value, slope = real(ctx, g)
        v = ctx.v.coords
        i, j = ctx.pos_i, ctx.pos_j
        s = sum(e * (form.derivative(i) - form.derivative(j)).constant_value() / form.evaluate(v)
                for form, e in g.forms.items())
        # with unhalved derivatives the rule is (n_z / d - g s) / 2; turned, + g s
        return value, slope + value * s

    monkeypatch.setattr(distributions, "_value_and_slope", turned)
    report = appendix_suite()
    assert report["passed"] < report["total"]


@pytest.mark.parametrize("gen", [(1, 2), (2, 1), (2, 3), (3, 2), (1, 1), (2, 2), (3, 3), (1, 3), (3, 1)])
def test_appendix_intertwines(gen):
    for spec in [("D1", ID), ("D2", S22), ("D1", S21 * S22), ("D2", S22**2)]:
        d = DistVector.from_terms(CTX, [(spec[0], spec[1], Fraction(1))])
        assert act_lie(CTX, gen, d) == appendix_act(CTX, gen, d)


# --- serialization ---------------------------------------------------------------


def test_dist_vector_json_shape():
    d = DistVector.from_terms(CTX, [("D2", S21, Fraction(-3, 2))])
    assert d.to_json() == [
        {"kind": "D2", "shift": {"(2,2)": 1}, "coeff": "3/2"}
    ]
