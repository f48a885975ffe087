import random
from fractions import Fraction

import pytest
import sympy

from gtsingular import poly
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.tableau import (
    Point,
    Shift,
    apply_shift,
    canonical_context,
    canonical_test_point,
    classify_point,
    shift_subst,
    SingularContext,
)
from tests_helpers import (
    ORDER5_POINT,
    ORDER6_POINT,
    ROW3_POINT,
    random_poly,
    random_rf,
    to_sympy,
)

X11 = RationalFunction.variable(1, 1)
X21 = RationalFunction.variable(2, 1)
X22 = RationalFunction.variable(2, 2)


def test_shift_group():
    s = Shift.generator(1, 1)
    t = Shift.generator(2, 1, -2)
    assert (s * t).component((1, 1)) == 1
    assert (s * s.inverse()).is_identity()
    assert s**3 == Shift({(1, 1): 3})
    assert Shift({(1, 1): 0}) == Shift.identity()


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.5, Fraction(-7, 3), "1"])
def test_shift_rejects_non_integer_components(bad):
    with pytest.raises(ValueError, match="not an integer"):
        Shift({(1, 1): bad})
    with pytest.raises(ValueError, match="not an integer"):
        Shift.generator(2, 1).scale(bad)


def test_shift_integral_components_are_stored_as_int():
    s = Shift({(1, 1): Fraction(4, 2), (2, 1): 3.0, (2, 2): Fraction(0)})
    assert s == Shift({(1, 1): 2, (2, 1): 3}) and s.to_json() == {"(1,1)": 2, "(2,1)": 3}
    assert all(type(m) is int for m in s.terms.values())
    t = Shift.generator(2, 1, 2).scale(Fraction(3, 2))
    assert t == Shift.generator(2, 1, 3) and type(t.component((2, 1))) is int
    assert (s**0).is_identity() and s**-1 == s.inverse()


def test_shift_json_roundtrip():
    s = Shift({(1, 1): -1, (2, 2): 3})
    assert s.to_json() == {"(1,1)": -1, "(2,2)": 3}


def test_apply_shift_examples():
    p = canonical_test_point()
    assert apply_shift(Shift.identity(), p) == p
    q = apply_shift(Shift.generator(1, 1), p)
    assert q[(1, 1)] == p[(1, 1)] + 1
    assert q[(2, 1)] == p[(2, 1)]
    s = Shift({(1, 1): 2, (2, 2): -1})
    assert apply_shift(s.inverse(), apply_shift(s, p)) == p


def test_apply_shift_rejects_bottom_row():
    p = canonical_test_point()
    with pytest.raises(ValueError):
        apply_shift(Shift.generator(3, 1), p)


def test_free_action():
    p = canonical_test_point()
    for s in [Shift.generator(1, 1), Shift({(2, 1): 1, (2, 2): -1})]:
        assert apply_shift(s, p) != p


def test_classify_one_singular():
    p = Point.from_rows([["1/5"], ["1/4", "-3/4"], ["1/7", "2/9", "5/11"]])
    c = classify_point(p)
    assert c.tag == "OneSingular" and c.pair == (2, 1, 2)
    assert str(c) == "OneSingular(2,1,2)"


def test_classify_generic():
    p = Point.from_rows([["1/5"], ["1/3", "1/7"], ["1/11", "2/13", "3/17"]])
    assert classify_point(p).tag == "Generic"


def test_classify_other():
    p = Point.from_rows([["1/5"], ["1/4", "5/4"], ["1/7", "8/7", "3/13"]])
    assert classify_point(p).tag == "Other"


def test_classify_invariant_under_shifts():
    rng = random.Random(7)
    p = canonical_test_point()
    for _ in range(20):
        s = Shift(
            {
                (1, 1): rng.randint(-2, 2),
                (2, 1): rng.randint(-2, 2),
                (2, 2): rng.randint(-2, 2),
            }
        )
        assert classify_point(apply_shift(s, p)) == classify_point(p)


def test_point_json_roundtrip():
    p = canonical_test_point()
    assert Point.from_json(p.to_json()) == p
    assert p.to_json()["rows"][1] == ["1/3", "1/3"]


def test_point_validation():
    with pytest.raises(ValueError):
        Point.from_rows([["1/2"], ["1/3"]])


def test_point_input_guards():
    full = canonical_test_point().coords
    with pytest.raises(ValueError, match="order must be at least 2"):
        Point(1, {(1, 1): Fraction(1)})
    with pytest.raises(ValueError, match=r"missing coordinate for position \(3, 3\)"):
        Point(3, {v: c for v, c in full.items() if v != (3, 3)})
    with pytest.raises(ValueError, match=r"unexpected positions \[\(4, 1\)\]"):
        Point(3, {**full, (4, 1): Fraction(1)})
    with pytest.raises(ValueError, match="expected 3 rows, got 2"):
        Point.from_json({"n": 3, "rows": [["1/5"], ["1/3", "1/3"]]})


def test_point_hash_and_repr():
    p = canonical_test_point()
    assert hash(p) == hash(Point.from_rows(p.rows()))
    assert len({p, Point.from_rows(p.rows())}) == 1
    assert repr(Point.from_rows([[1], [2, 3]])) == (
        "Point(n=2, rows=[[Fraction(1, 1)], [Fraction(2, 1), Fraction(3, 1)]])"
    )


def test_point_hash_is_cached_and_equal_across_constructions():
    """Points are memo keys: equal points hash equally however they are
    built, and the hash is computed once."""
    p = canonical_test_point()
    sigma = Shift({(1, 1): 1, (2, 2): -2})
    moved = apply_shift(sigma, p)
    rows = p.rows()
    rows[0][0] += 1
    rows[1][1] -= 2
    built = Point.from_rows(rows)
    assert moved == built and hash(moved) == hash(built)
    assert all(type(c) is Fraction for c in moved.coords.values())
    assert apply_shift(sigma.inverse(), moved) == p
    assert hash(apply_shift(sigma.inverse(), moved)) == hash(p)
    first = hash(built)
    assert built._hash == first and hash(built) == first


def test_shift_subst_examples():
    assert shift_subst(X11, Shift.generator(1, 1)) == X11 - RationalFunction.one()
    f = (X11 + X21) * X22**-2
    assert shift_subst(f, Shift.identity()) == f
    z1 = X21 - X22
    assert shift_subst(z1, Shift.generator(2, 1)) == z1 - RationalFunction.one()


def test_shift_subst_group_action():
    rng = random.Random(3)
    f = (X11 * X21 - X22) / (X21 - X22 + RationalFunction.constant(Fraction(1, 2)))
    for _ in range(10):
        s = Shift({(1, 1): rng.randint(-2, 2), (2, 1): rng.randint(-2, 2)})
        t = Shift({(2, 1): rng.randint(-2, 2), (2, 2): rng.randint(-2, 2)})
        assert shift_subst(shift_subst(f, s), t) == shift_subst(f, s * t)


def sympy_value(f):
    return to_sympy(f) if isinstance(f, Polynomial) else to_sympy(f.num) / to_sympy(f.den)


@pytest.mark.parametrize("seed", range(6))
def test_shift_subst_integer_path(seed):
    """shift_subst on random polynomials and rational functions with
    rational coefficients: the integer path keeps the numerator canonical
    as it stands, and equals a Fraction-offset substitution by m - 1/2 then
    1/2 and sympy's substitution X -> X - m."""
    rng = random.Random(900 + seed)
    for f in (random_poly(rng, max_terms=5, max_deg=3), random_rf(rng)):
        sigma = Shift({v: rng.randint(-3, 3) for v in [(1, 1), (2, 1), (2, 2)]})
        moved = shift_subst(f, sigma)
        num = moved if isinstance(moved, Polynomial) else moved.num
        normal = poly._normal(dict(num.terms), num.den)
        assert (normal.terms, normal.den) == (num.terms, num.den)
        half = {v: Fraction(m) - Fraction(1, 2) for v, m in sigma.terms.items()}
        back = {v: Fraction(1, 2) for v in sigma.terms}
        assert moved == f.subs_offsets(half).subs_offsets(back)
        sub = {sympy.Symbol("x_%d_%d" % v): sympy.Symbol("x_%d_%d" % v) - m
               for v, m in sigma.terms.items()}
        expected = sympy_value(f).subs(sub, simultaneous=True)
        assert sympy.cancel(sympy_value(moved) - expected) == 0


def test_context_transpose():
    """The canonical context swaps its singular pair (2,1) <-> (2,2) in
    polynomials and rational functions alike, and is an involution."""
    ctx = canonical_context()
    z1 = X21 - X22
    assert ctx.transpose(z1) == -z1
    assert ctx.transpose(ctx.z1_poly) == -ctx.z1_poly
    sym = X21 * X22
    assert ctx.transpose(sym) == sym
    f = (X11 - X21) / (X21 - X22)
    assert ctx.transpose(f) == (X11 - X22) / (X22 - X21)
    assert ctx.transpose(ctx.transpose(f)) == f


def test_singular_context_valid():
    ctx = canonical_context()
    assert (ctx.k, ctx.i, ctx.j) == (2, 1, 2)
    assert ctx.z1_poly == Polynomial.variable(2, 1) - Polynomial.variable(2, 2)


def test_singular_context_rejects_bottom_row():
    p = Point.from_rows([["1/5"], ["1/3", "1/7"], ["1/11", "1/11", "3/17"]])
    assert classify_point(p).tag == "OneSingular"
    with pytest.raises(ValueError, match="^singular pair in the bottom row produces no "
                       "singular denominators; context rejected$"):
        SingularContext(p)


def test_singular_context_input_guards():
    assert repr(canonical_context()) == "SingularContext(n=3, pair=(2,1,2))"


def test_singular_context_reads_the_pair_off_the_point():
    """The point alone fixes the context: its pair is the one
    `classify_point` reports, in any row above the bottom one."""
    for point, pair in [(ROW3_POINT, (3, 1, 2)), (ORDER5_POINT, (2, 1, 2)),
                        (ORDER6_POINT, (2, 1, 2))]:
        ctx = SingularContext(point)
        assert (ctx.k, ctx.i, ctx.j) == pair == classify_point(point).pair
        k, i, j = pair
        assert ctx.z1_poly == Polynomial.variable(k, i) - Polynomial.variable(k, j)


def test_singular_context_requires_equal_values():
    p = Point.from_rows([["1/5"], ["1/4", "-3/4"], ["1/7", "2/9", "5/11"]])
    with pytest.raises(ValueError, match="^base point must take equal values on the singular pair$"):
        SingularContext(p)


def test_singular_context_rejects_doubly_singular():
    p = Point.from_rows([["1/5"], ["1/4", "1/4"], ["1/7", "8/7", "3/13"]])
    with pytest.raises(ValueError, match="^point classifies as Other, not OneSingular$"):
        SingularContext(p)


def test_singular_context_rejects_a_generic_point():
    p = Point.from_rows([["1/5"], ["1/3", "1/7"], ["1/11", "2/13", "3/17"]])
    with pytest.raises(ValueError, match="^point classifies as Generic, not OneSingular$"):
        SingularContext(p)


def test_tau_of_shift():
    ctx = canonical_context()
    s = Shift({(2, 1): 2})
    t = ctx.tau_of_shift(s)
    assert t == Shift({(2, 2): 2})
    assert ctx.tau_of_shift(t) == s
    fixed = Shift({(2, 1): 1, (2, 2): 1, (1, 1): -1})
    assert ctx.tau_of_shift(fixed) == fixed
    mixed = Shift({(1, 1): 3, (2, 1): 1})
    assert ctx.tau_of_shift(mixed) == Shift({(1, 1): 3, (2, 2): 1})
    # total shift over the pair is preserved
    for s in [Shift({(2, 1): 2, (2, 2): -1}), Shift({(2, 2): 5})]:
        t = ctx.tau_of_shift(s)
        assert s.component((2, 1)) + s.component((2, 2)) == t.component((2, 1)) + t.component(
            (2, 2)
        )


def test_representative():
    """The parity rule: (shift, ordered representative, sign of an even
    label, sign of an odd label)."""
    ctx = canonical_context()
    table = [
        # ordered: component (2,1) at most component (2,2)
        (Shift({(2, 2): 2}), Shift({(2, 2): 2}), 1, 1),
        (Shift({(1, 1): 3, (2, 1): -1}), Shift({(1, 1): 3, (2, 1): -1}), 1, 1),
        # flipped: tau swaps the pair, and an odd label changes sign
        (Shift({(2, 1): 2}), Shift({(2, 2): 2}), 1, -1),
        (Shift({(1, 1): 3, (2, 1): 1}), Shift({(1, 1): 3, (2, 2): 1}), 1, -1),
        # fixed by tau: an odd label is zero there
        (Shift({(2, 1): 1, (2, 2): 1}), Shift({(2, 1): 1, (2, 2): 1}), 1, 0),
        (Shift.identity(), Shift.identity(), 1, 0),
    ]
    for sigma, rep, even_sign, odd_sign in table:
        assert ctx.representative(sigma, False) == (rep, even_sign), sigma
        assert ctx.representative(sigma, True) == (rep, odd_sign), sigma
        # idempotent: the representative is its own
        assert ctx.representative(rep, True)[0] == rep, sigma


def test_divide_by_z1():
    ctx = canonical_context()
    z1 = X21 - X22
    one = RationalFunction.one()
    assert z1 * z1 / ctx.z1 == z1
    assert (one / ctx.z1).forms == {ctx.z1_poly: 1}
    f = z1 / (z1 - one)
    assert f / ctx.z1 == one / (z1 - one)


def test_canonical_point_classifies():
    assert str(classify_point(canonical_test_point())) == "OneSingular(2,1,2)"
