"""Suites read their order from their inputs: the default generator lists
and samples are derived, and they run at order 4 as they do at order 3."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from gtsingular import distributions, suites
from gtsingular.distributions import (
    DistVector,
    act,
    act_lie,
    appendix_act,
    apply_dist,
    generic_act_element,
)
from gtsingular.gtformulas import (
    adjacent_generators,
    all_generators,
    gl_bracket,
    phi_combination,
    phi_general,
)
from gtsingular.poly import Polynomial
from gtsingular.skewring import RingElement, ring_mul_circ
from gtsingular.suites import (
    GENERIC_LABELS_3,
    GENERIC_POINT_3,
    appendix_sample,
    appendix_suite,
    functional_suite,
    generic_suite,
    module_suite,
    random_polynomial,
    random_shift,
    ring_suite,
    sample_basis,
    singularity_suite,
)
from gtsingular.tableau import (
    Point,
    Shift,
    SingularContext,
    canonical_context,
    canonical_test_point,
    positions,
)
from tests_helpers import ORDER5_POINT, ROW3_POINT


def test_derived_defaults_match_documented_literals():
    assert adjacent_generators(3) == [(1, 2), (2, 1), (2, 3), (3, 2), (1, 1), (2, 2), (3, 3)]
    assert all_generators(3) == [
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)
    ]
    documented = [
        ("D1", Shift.identity()),
        ("D1", Shift({(2, 1): 1, (2, 2): 1})),
        ("D2", Shift({(2, 2): 1})),
        ("D2", Shift({(2, 2): 2})),
    ]
    extra = [
        ("D1", Shift({(1, 1): 1})),
        ("D2", Shift({(1, 1): 1, (2, 2): 1})),
    ]
    ctx = canonical_context()
    assert sample_basis(ctx) == documented
    assert appendix_sample(ctx) == documented + extra
    # the shift positions of order n, in the order random_shift draws them
    assert list(positions(3 - 1)) == [(1, 1), (2, 1), (2, 2)]
    for n in range(2, 6):
        assert list(positions(n - 1)) == [(k, i) for k in range(1, n) for i in range(1, k + 1)]


def test_suites_run_at_order_4():
    ctx = SingularContext(ROW3_POINT, 3, 1, 2)
    assert sample_basis(ctx)[1:] == [
        ("D1", Shift({(3, 1): 1, (3, 2): 1})),
        ("D2", Shift({(3, 2): 1})),
        ("D2", Shift({(3, 2): 2})),
    ]
    report = singularity_suite(ctx, 10, 5)
    assert report["ok"] and report["total"] == 11, report["failures"][:3]
    report = functional_suite(ctx, 10, 5)
    assert report["ok"] and report["total"] == 10, report["failures"][:3]
    report = appendix_suite(ctx, adjacent_generators(4))
    assert report["ok"] and report["total"] == 10 * 6 and report["n"] == 4, report["failures"][:3]
    # two generators and the default sample: 2 x 2 pairs x 4 vectors
    report = module_suite(ctx, [(2, 3), (3, 2)])
    assert report["ok"] and report["total"] == 16 and report["n"] == 4, report["failures"][:3]


def test_order5_module_report_is_pinned():
    """module_suite at (2,1,2) of ORDER5_POINT for the corner generators
    E(1,5), E(5,1), their neighbours E(4,5), E(5,4), and E(2,2) on D1[id]:
    the report, sha256 of json.dumps(report, sort_keys=True), is the one
    the module computed when it read every jet from expanded numerators
    and denominators."""
    ctx = SingularContext(ORDER5_POINT, 2, 1, 2)
    gens = [(1, 5), (5, 1), (4, 5), (5, 4), (2, 2)]
    report = module_suite(ctx, gens, [("D1", Shift.identity())])
    assert report["ok"] and report["total"] == 25 and report["n"] == 5
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "0acca4c603b459ed1852bdcddf8349b2122dd9d0e7f5c1993079328ac1b0817b"


def test_module_suite_checks_each_element_once(monkeypatch):
    """The shipped module suite acts with 7 generator images on the left and
    one element per distinct bracket, 17 of them, on the right.  Four
    brackets are +1 times an adjacent generator, such as [E11,E12] = E12,
    and their element is that generator's image itself.  Each element is
    checked for invariance once, in a new context: 20 checks for 196
    commutator checks."""
    ctx = SingularContext(canonical_test_point(), 2, 1, 2)  # no image has acted in it
    checks = []
    real = distributions._check_invariant

    def recorded(ctx, a):
        checks.append(a)
        return real(ctx, a)

    monkeypatch.setattr(distributions, "_check_invariant", recorded)
    report = module_suite(ctx)
    assert report["ok"] and report["total"] == 196
    assert len(checks) == len({id(a) for a in checks}) == 20
    gens = adjacent_generators(3)
    assert len({tuple(gl_bracket(x, y)) for x in gens for y in gens}) == 17


def test_default_module_suites_share_one_context():
    """Suites called without a context act in the one shipped context, so
    a second default module suite finds every image's memo filled and adds
    no context to it."""
    gens = all_generators(3)
    assert module_suite()["ok"]
    keys = {g: list(getattr(phi_general(3, *g), "_act", {})) for g in gens}
    assert all(canonical_context() in keys[g] for g in adjacent_generators(3))
    assert module_suite()["ok"]
    assert {g: list(getattr(phi_general(3, *g), "_act", {})) for g in gens} == keys


def test_module_suite_failure_entries(monkeypatch):
    """A wrong right-hand side is reported per (pair, basis vector), with
    both sides in their JSON form."""
    monkeypatch.setattr(suites, "act", lambda ctx, a, d: act(ctx, a, d).scale(2))
    ctx = canonical_context()
    generators = [(1, 2), (2, 1)]
    report = module_suite(ctx, generators)
    assert not report["ok"] and report["total"] == 16
    assert report["failures"] and report["passed"] == 16 - len(report["failures"])
    vectors = [
        ([kind, sigma.to_json()], DistVector.from_terms(ctx, [(kind, sigma, Fraction(1))]))
        for kind, sigma in sample_basis(ctx)
    ]
    for failure in report["failures"]:
        assert set(failure) == {"pair", "basis", "lhs", "rhs"}
        x, y = (tuple(g) for g in failure["pair"])
        (d,) = [d for basis, d in vectors if basis == failure["basis"]]
        lhs = act_lie(ctx, x, act_lie(ctx, y, d)) - act_lie(ctx, y, act_lie(ctx, x, d))
        rhs = act(ctx, phi_combination(ctx.n, gl_bracket(x, y)), d).scale(2)
        assert failure["lhs"] == lhs.to_json() and failure["rhs"] == rhs.to_json()


def test_ring_suite_failure_entries(monkeypatch):
    """A product off by a factor 2 breaks only the unit law; one off by the
    unit breaks all four laws, each reported per triple by name."""
    monkeypatch.setattr(suites, "ring_mul_circ", lambda a, b: ring_mul_circ(a, b).scale(2))
    # seed 3 draws a nonzero first element in each of the first three triples
    report = ring_suite(3, count=3, seed=3)
    assert not report["ok"] and report["total"] == 3 and report["passed"] == 0
    assert report["failures"] == [{"triple": idx, "check": "unit"} for idx in range(3)]
    monkeypatch.setattr(
        suites, "ring_mul_circ", lambda a, b: ring_mul_circ(a, b) + RingElement.one()
    )
    report = ring_suite(3, count=2, seed=3)
    names = ["assoc", "left-dist", "right-dist", "unit"]
    assert report["failures"] == [{"triple": idx, "check": c} for idx in range(2) for c in names]
    # eight failures on two triples: no triple passed
    assert report["total"] == 2 and report["passed"] == 0


def test_singularity_suite_failure_entries(monkeypatch):
    """The anchor, and each product's two predicates, fail by name."""
    ctx = canonical_context()
    monkeypatch.setattr(suites, "_anchor_check", lambda ctx: False)
    report = singularity_suite(ctx, count=3, seed=5)
    assert not report["ok"] and report["total"] == 4 and report["passed"] == 3
    assert report["failures"] == [{"check": "closed-form-anchor"}]
    monkeypatch.undo()
    for name, check in (
        ("is_tau_invariant", "tau-invariance"),
        ("is_at_most_one_singular", "at-most-one-singular"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(suites, name, lambda ctx, a: False)
            report = singularity_suite(ctx, count=3, seed=5)
        assert report["passed"] == 1
        assert report["failures"] == [{"product": idx, "check": check} for idx in range(3)]
    # both predicates fail on every product: three failed products, not six
    monkeypatch.setattr(suites, "is_tau_invariant", lambda ctx, a: False)
    monkeypatch.setattr(suites, "is_at_most_one_singular", lambda ctx, a: False)
    report = singularity_suite(ctx, count=3, seed=5)
    assert len(report["failures"]) == 6 and report["total"] == 4 and report["passed"] == 1


def test_appendix_suite_failure_entries(monkeypatch):
    """A doubled tableau-side action fails exactly where it is nonzero."""
    monkeypatch.setattr(
        suites, "appendix_act", lambda ctx, gen, e: appendix_act(ctx, gen, e).scale(2)
    )
    ctx = canonical_context()
    generators = [(1, 2), (2, 2)]
    sample = appendix_sample(ctx)[:3]
    report = appendix_suite(ctx, generators, sample)
    expected = [
        {"generator": list(gen), "basis": [kind, sigma.to_json()]}
        for gen in generators
        for kind, sigma in sample
        if appendix_act(ctx, gen, DistVector.from_terms(ctx, [(kind, sigma, 1)]))
    ]
    assert expected and report["failures"] == expected
    assert report["total"] == 6 and report["passed"] == 6 - len(expected)


def test_functional_suite_failure_entries(monkeypatch):
    monkeypatch.setattr(suites, "apply_dist", lambda ctx, d, f: apply_dist(ctx, d, f) + 1)
    report = functional_suite(canonical_context(), count=4, seed=5)
    assert not report["ok"] and report["total"] == 4 and report["passed"] == 0
    assert report["failures"] == [{"pair": idx} for idx in range(4)]


def _assert_nonzero_rhs_entries_fail():
    """Run the generic suite on 2 generators and 2 labels; exactly the
    entries whose true right side is nonzero must fail."""
    generators = [(1, 2), (2, 1)]
    labels = GENERIC_LABELS_3[:2]
    report = generic_suite(GENERIC_POINT_3, labels, generators)
    expected = [
        {"pair": [list(x), list(y)], "label": label.to_json()}
        for x in generators
        for y in generators
        for label in labels
        if generic_act_element(GENERIC_POINT_3, phi_combination(3, gl_bracket(x, y)), label)
    ]
    assert expected and report["failures"] == expected
    assert report["total"] == 8 and report["passed"] == 8 - len(expected)


def test_generic_suite_failure_entries(monkeypatch):
    """Doubling the unmemoized orbit action doubles only the right side,
    while the memoized left side stays equal to the true right side: each
    pair and label with a nonzero right side fails."""
    monkeypatch.setattr(
        suites,
        "generic_act_element",
        lambda x, a, d: generic_act_element(x, a, d).scale(2),
    )
    _assert_nonzero_rhs_entries_fail()


def test_generic_suite_fails_on_a_memo_fault(monkeypatch):
    """Doubling the memoized columns quadruples the left side and leaves
    the right side alone: each pair and label with a nonzero right side
    fails, so a fault in the memo path cannot pass the suite."""
    column = distributions._generic_column
    monkeypatch.setattr(
        distributions, "_generic_column", lambda x, r, s, y: column(x, r, s, y).scale(2)
    )
    _assert_nonzero_rhs_entries_fail()


def test_an_empty_list_runs_no_check():
    """An empty generator, sample or label list is not the default: the
    suite runs no check and passes."""
    ctx = canonical_context()
    reports = [
        module_suite(ctx, generators=[]),
        module_suite(ctx, generators=[(1, 2)], basis_sample=[]),
        appendix_suite(ctx, generators=[]),
        appendix_suite(ctx, generators=[(1, 2)], basis_sample=[]),
        generic_suite(generators=[]),
        generic_suite(labels=[], generators=[(1, 1)]),
    ]
    for report in reports:
        assert report["ok"] and report["total"] == report["passed"] == 0
        assert report["failures"] == []


def test_a_fixed_d2_sample_is_refused_as_input(monkeypatch):
    """D2 is undefined on a transposition-fixed shift: module_suite refuses
    such a sample as appendix_suite does, with a ValueError, not as an
    internal fault.  An unordered sample is its ordered representative
    with its sign."""
    ctx = canonical_context()
    for suite in (module_suite, appendix_suite):
        with pytest.raises(ValueError, match="^D2 is undefined on a transposition-fixed shift$"):
            suite(ctx, [(1, 2)], [("D2", Shift.identity())])
    seen = []
    monkeypatch.setattr(suites, "act", lambda ctx, a, d: seen.append(d) or act(ctx, a, d))
    swapped = module_suite(ctx, [(2, 3), (1, 2)], [("D2", Shift({(2, 1): 1}))])
    assert swapped["ok"] and swapped["total"] == 4
    assert set(seen) == {DistVector({("D2", Shift({(2, 2): 1})): -1})}


@pytest.mark.parametrize("suite", [module_suite, appendix_suite])
def test_a_sample_outside_the_rows_is_refused(suite):
    """A sample's shift moves rows 1..n-1 only: a sample at row n is
    refused with a ValueError, not run over labels outside the basis."""
    with pytest.raises(ValueError, match=r"^shift touches row 3, beyond rows 1\.\.2$"):
        suite(canonical_context(), [(1, 2)], [("D1", Shift({(3, 1): 1}))])


def test_generic_suite_defaults_follow_the_order():
    """At order 2 the default labels are those of GENERIC_LABELS_3 that move
    row 1 only; at order 3 they are all six."""
    x = Point.from_rows([[Fraction(1, 5)], [Fraction(1, 3), Fraction(1, 7)]])
    report = generic_suite(x)
    # 4 generators, 16 ordered pairs, 2 labels
    assert report["ok"] and report["total"] == 32 and report["n"] == 2, report["failures"][:3]
    report = generic_suite(generators=[(1, 2), (2, 1)])
    assert report["ok"] and report["total"] == 4 * len(GENERIC_LABELS_3) == 24


def _count_calls(monkeypatch, names):
    """Count the calls each suite makes through `suites.<name>`."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(suites, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(suites, name, counted)
    return counts


def test_suites_build_each_commutator_once(monkeypatch):
    """The left side is built once per unordered pair of distinct
    generators and sample vector or label, with four generator actions;
    the right side still acts once per check."""
    counts = _count_calls(monkeypatch, ["act_lie", "act", "generic_act"])
    report = module_suite()
    assert report["ok"] and report["total"] == 196
    # 7 generators make 21 unordered pairs, times 4 sample vectors
    assert counts == {"act_lie": 4 * 21 * 4, "act": 196, "generic_act": 0}
    counts.update(dict.fromkeys(counts, 0))
    report = generic_suite()
    assert report["ok"] and report["total"] == 486
    # 9 generators make 36 unordered pairs, times 6 labels
    assert counts == {"act_lie": 0, "act": 0, "generic_act": 4 * 36 * 6}


def _double_one_generator(monkeypatch, name, gen):
    """Make `suites.<name>` return twice the true result for gen."""
    real = getattr(suites, name)
    monkeypatch.setattr(
        suites, name, lambda p, g, d: real(p, g, d).scale(2) if g == gen else real(p, g, d)
    )
    return getattr(suites, name)


def _failed_pairs(report):
    return {tuple(tuple(g) for g in f["pair"]) for f in report["failures"]}


def test_module_suite_reports_a_left_side_fault_at_both_orders(monkeypatch):
    """With E(1,2) acting twice over, the pairs it forms fail, every
    failed pair fails in both orders, and each failure's left side is the
    one computed afresh for its own pair, not taken from the mirror."""
    faulty = _double_one_generator(monkeypatch, "act_lie", (1, 2))
    ctx = canonical_context()
    generators = [(1, 2), (2, 1), (1, 1)]
    report = module_suite(ctx, generators)
    assert not report["ok"] and report["total"] == 36
    failed = _failed_pairs(report)
    assert {((1, 2), (2, 1)), ((2, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 1), (1, 2))} <= failed
    assert all(x != y for x, y in failed) and failed == {(y, x) for x, y in failed}
    vectors = {
        json.dumps([kind, sigma.to_json()]): DistVector.from_terms(ctx, [(kind, sigma, 1)])
        for kind, sigma in sample_basis(ctx)
    }
    for failure in report["failures"]:
        x, y = (tuple(g) for g in failure["pair"])
        d = vectors[json.dumps(failure["basis"])]
        lhs = faulty(ctx, x, faulty(ctx, y, d)) - faulty(ctx, y, faulty(ctx, x, d))
        assert failure["lhs"] == lhs.to_json()


def test_generic_suite_reports_a_left_side_fault_at_both_orders(monkeypatch):
    """The same fault in `generic_act`: every pair that fails in one
    order fails in the other, and the failures are exactly the entries
    whose left side, computed afresh, differs from the true right side."""
    faulty = _double_one_generator(monkeypatch, "generic_act", (1, 2))
    x = GENERIC_POINT_3
    generators = [(1, 2), (2, 1), (1, 1)]
    report = generic_suite(x, GENERIC_LABELS_3, generators)
    assert not report["ok"] and report["total"] == 54
    failed = _failed_pairs(report)
    assert {((1, 2), (2, 1)), ((2, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 1), (1, 2))} <= failed
    assert all(xg != yg for xg, yg in failed) and failed == {(y, x) for x, y in failed}
    expected = []
    for xg in generators:
        for yg in generators:
            rhs_elem = phi_combination(3, gl_bracket(xg, yg))
            for label in GENERIC_LABELS_3:
                lhs = faulty(x, xg, faulty(x, yg, label)) - faulty(x, yg, faulty(x, xg, label))
                if lhs != generic_act_element(x, rhs_elem, label):
                    expected.append({"pair": [list(xg), list(yg)], "label": label.to_json()})
    assert report["failures"] == expected


# The samplers as they were built before they summed integer terms: a
# Fraction per coefficient and a one-term Polynomial per term.  The
# reference for the draw-order contract below.


def fraction_random_shift(rng: random.Random, n: int, radius: int = 1) -> Shift:
    return Shift({v: rng.randint(-radius, radius) for v in positions(n - 1)})


def fraction_random_polynomial(
    rng: random.Random,
    n: int,
    max_terms: int = 3,
    max_deg: int = 3,
    zero_ok: bool = True,
) -> Polynomial:
    variables = list(positions(n))
    while True:
        p = Polynomial.zero()
        for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            mono: dict = {}
            for _ in range(rng.randint(0, max_deg)):
                v = rng.choice(variables)
                mono[v] = mono.get(v, 0) + 1
            p = p + Polynomial.term(tuple(sorted(mono.items())), c)
        if zero_ok or not p.is_zero():
            return p


# every parameter set the suites and the tests draw with
POLY_PARAMS = [(), (3, 3, True), (2, 1, False), (3, 4, True), (2, 2, False)]


@pytest.mark.parametrize("n", range(1, 6))
def test_samplers_make_the_reference_draws(n):
    """At seeds 0-49 the integer samplers make the reference's rng calls,
    in its order, and return its canonical values: after every draw the
    terms, the denominator and the generator's state are equal."""
    for seed in range(50):
        new, ref = random.Random(seed), random.Random(seed)
        for params in POLY_PARAMS:
            got = random_polynomial(new, n, *params)
            want = fraction_random_polynomial(ref, n, *params)
            assert type(got) is Polynomial
            assert (got.terms, got.den) == (want.terms, want.den), (seed, params)
            assert new.getstate() == ref.getstate(), (seed, params)
        for radius in (1, 2):
            got, want = random_shift(new, n, radius), fraction_random_shift(ref, n, radius)
            assert type(got) is Shift and got.terms == want.terms, (seed, radius)
            assert all(type(m) is int for m in got.terms.values())
            assert new.getstate() == ref.getstate(), (seed, radius)


def test_random_polynomial_rejects_an_order_past_the_maximum():
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="out of range for order 12"):
        random_polynomial(rng, 13)
    assert rng.getstate() == state
