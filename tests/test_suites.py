"""Suites read their order from their inputs: the default generator lists
and samples are derived, and they run at order 4 as they do at order 3."""

from fractions import Fraction

from gtsingular import suites
from gtsingular.distributions import DistVector, act, act_lie
from gtsingular.gtformulas import adjacent_generators, all_generators, gl_bracket, phi_combination
from gtsingular.suites import (
    appendix_sample,
    appendix_suite,
    functional_suite,
    module_suite,
    sample_basis,
    singularity_suite,
)
from gtsingular.tableau import Point, Shift, SingularContext, canonical_context, positions

# An order-4 point, 1-singular at the row-3 pair (3,1,2); every other
# coordinate has its own prime denominator.
ROW3_POINT = Point.from_rows(
    [
        [Fraction(1, 5)],
        [Fraction(1, 3), Fraction(1, 7)],
        [Fraction(2, 11), Fraction(2, 11), Fraction(3, 13)],
        [Fraction(1, 17), Fraction(2, 19), Fraction(3, 23), Fraction(4, 29)],
    ]
)


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
