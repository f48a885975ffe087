"""The distribution basis at a 1-singular point and the module action on it.

Basis vectors are indexed by shifts with ordered components at the singular
pair: D1 is the symmetrized evaluation, D2 the symmetrized first jet along
z1 scaled by 1/(2 z1).  A ring element A with tau-invariant, at most simply
singular coefficients acts on a distribution D = ev_v o B by composing on
the function side, D |-> ev_v o (B o A), and the result expands exactly in
the basis: per term h sigma with g = z1 h,

    ev_v o (h sigma) = g(v) D2_sigma + (dg/dz1)(v) D1_sigma,

followed by reduction to ordered representatives (D1 is tau-even, D2
tau-odd).  B o A is never formed.  Its coefficient on a target shift
s rho is a signed sum, over the two sides s of B (one when tau fixes the
label), of A's coefficient a_rho read on the z1 line through v - m(s).
Evaluation is a ring homomorphism, so g is the same signed sum of the
terms' jets on those lines: each line is one integer kernel (`poly.Line`,
built once per context and side), on which numerator and denominator
restrict exactly to integers over one denominator each, and a jet is its
two coefficients as integers over one denominator.  No product of linear
forms is expanded to be read: each form is one integer pair on the line,
memoized there, and `Line.product_series` multiplies the pairs,
truncated.  The denominator is always read from its forms (a polynomial
term's is 1), and a numerator from the linear factors its coefficient
stores (`_num_forms`, on image coefficients, their multiples, shifts and
transposes); any other from its terms by `Polynomial.line_series`.  The weights of B's
sides are 1 or +-1/2, so a column adds each target's jets with the side's
sign, as integers over one common denominator, and doubles that
denominator once when B has two sides.  Order 0 of g goes on D2, order 1
on D1, and each target is reduced to its ordered representative once,
for both kinds, still in integers: a Fraction is built only for a nonzero
entry of the finished column.  Membership is decided per term from its
reduced denominator, not from the line: a term that is not regular at v
on its own sends its target to an exact symbolic sum, which is regular
only when the other side cancels the pole.  A term's jet on a line is a
Laurent pair, regular (c0, c1) or at a simple pole (c_-1, c0): D2 reads
(c0, c1) of a regular jet, D1 the jet of z1 h, (0, c0) or (c_-1, c0).  So
one jet per coefficient and side serves both kinds.  `act` keeps one memo
on A itself, per context: A's invariance, stored once the check passes,
each side's jets, shared by the D1 and D2 columns, and each label's column;
each side's line is built once per context.  An equal but distinct element
starts with an empty memo, so a memo lives exactly as long as its element.
`act_lie` is `act` by `phi_general`'s memoized image, one per generator and
shared by every order (the images do not depend on n).  `act` extends its
columns linearly through one helper: a label, or a vector of one label with
coefficient 1, is its column itself, and any other vector sums its scaled
columns per label as integers over one denominator, with one Fraction per
nonzero entry.  `evaluate_at_v` is the action on ev_v, itself the basis
vector D1_id.  `appendix_act`, an independent oracle, reads D1_sigma as
the derivative-tableau symbol T(v + sigma) and D2_sigma as DT(v + sigma)
and each coefficient's value and z1-slope at v by the quotient rule over
its denominator's forms (the tests check that rule against the quotient
rule on the expanded numerator and denominator).  One label rule,
`_label`, refuses a wrong kind, a shift outside rows 1..n-1 and D2 on a
tau-fixed shift with ValueError:
`DistVector.from_terms` (the one way in from outside), `act`,
`apply_dist` and `appendix_act` read every label through it, and one parity
rule, `SingularContext.representative`, reduces it.  The generic orbit
action's vectors are `SparseSum`s of shifts (`OrbitVector`); `generic_act`
extends its columns, memoized per point, generator and label, through the
same linear helper.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping

from .gtformulas import GeneratorId, phi_general
from .poly import Line, Polynomial, divexact
from .ratfun import RationalFunction, multiply_by_linear
from .skewring import RingElement, is_tau_invariant
from .sparse import BasisVec, SparseSum, add_term
from .tableau import (
    Point,
    Shift,
    SingularContext,
    apply_shift,
    classify_point,
    shift_subst,
)

_HALF = Fraction(1, 2)
_EV_V = BasisVec("D1", Shift.identity())  # evaluation at v


class MembershipError(ValueError):
    """Ring element is outside the universal ring at the base point."""


class InvariantViolation(RuntimeError):
    """A structurally guaranteed cancellation failed; indicates a bug."""


class DistVector(SparseSum):
    """Finite rational combination of basis distributions; `from_terms` is
    the one way in for a label from outside."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[str, Shift], Fraction] | None = None):
        super().__init__((BasisVec(*key), Fraction(c)) for key, c in (terms or {}).items())

    @classmethod
    def from_terms(
        cls, ctx: SingularContext, terms: Iterable[tuple[str, Shift, Fraction]]
    ) -> "DistVector":
        """The sum of the terms (kind, sigma, c), each label checked by
        `_label` and reduced to its ordered representative; a zero term is
        skipped unchecked."""
        acc: dict[BasisVec, Fraction] = {}
        for kind, sigma, c in terms:
            c = Fraction(c)
            if not c:
                continue
            odd, _ = _label(ctx, kind, sigma)
            rep, sign = ctx.representative(sigma, odd)
            add_term(acc, BasisVec(kind, rep), sign * c)
        return cls._raw(acc)

    def to_json(self) -> list[dict]:
        from .textform import frac_text

        return [
            {"kind": bv.kind, "shift": bv.sigma.to_json(), "coeff": frac_text(c)}
            for bv, c in self.sorted_items()
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{key!r}" for key, c in self.sorted_items())


# --- evaluation of ring elements into the basis ------------------------------


@lru_cache(maxsize=None)
def _side_line(ctx: SingularContext, side: Shift) -> tuple[Line, Polynomial]:
    """The z1 line through v - m(side) as (line, zform): its integer kernel
    (`Line`) and the z1-form that vanishes at its base point, which is e on
    the line.  Memoized per context and side; the identity's line is v's
    own.  The kernel's form pairs fill as jets are read, so every column on
    the side shares them."""
    coords = dict(ctx.v.coords)
    for pos, m in side.terms.items():
        coords[pos] -= m
    zform = ctx.z1_poly - Polynomial.constant(coords[ctx.pos_i] - coords[ctx.pos_j])
    return Line(coords, ctx.pos_i, ctx.pos_j), zform


def _side_jet(
    h: RationalFunction, line: tuple[Line, Polynomial]
) -> tuple[bool, int, int, int] | None:
    """h's Laurent jet on the z1 line (kernel, zform) of `_side_line`, where
    x(k,i) = base + e/2, x(k,j) = base - e/2 and zform = e, as integers
    (pole, lo, hi, q) over one denominator q: (False, c0 q, c1 q, q) when
    h = c0 + c1 e + O(e^2) is regular at the base point, (True, c_-1 q,
    c0 q, q) when h = c_-1/e + c0 + O(e) has a simple pole there, None
    otherwise.  The triple is canonical, q > 0 and gcd(lo, hi, q) = 1, so
    the jets memo holds the smallest integers.  h is reduced, so it is
    regular there exactly when its reduced denominator does not vanish
    there, and has a simple pole when that denominator is zform times one
    that does not.  One jet serves both kinds; `_read_jet` gives each kind
    its pair.  The series are integers over one denominator each, N / nd
    for the numerator and D / dd for the denominator, so c0 = N0 dd D0 /
    (nd D0^2) and c1 = (N1 D0 - D1 N0) dd / (nd D0^2), divided by the gcd
    of the three.  The denominator series is the product of its forms'
    (`Line.product_series`), (1, 0, 0) over 1 for a polynomial.  When h
    carries its numerator's factors, num = unit * prod(form**e)
    (`_num_forms`), num's series is the unit times their product's,
    read from the forms too; otherwise it is read from num's terms
    (`Polynomial.line_series`)."""
    kernel, zform = line
    den, dd = kernel.product_series(h.forms)
    pole = not den[0]
    if pole:
        if not den[1] or not h.den_divisible_by(zform):
            return None
        # h = num / (zform r), zform = e on the line, so r is den shifted
        # down one order and r(base) = den[1] != 0
        den = den[1:]
    num_forms = h._num_forms
    if num_forms is None:
        (n0, n1), nd = h.num.line_series(kernel)
    else:
        unit, forms = num_forms
        (n0, n1, _), nd = kernel.product_series(forms)
        a = unit.numerator
        n0, n1, nd = n0 * a, n1 * a, nd * unit.denominator
    d0 = den[0]
    # q > 0: nd, like every series denominator, is positive
    lo, hi, q = n0 * dd * d0, (n1 * d0 - den[1] * n0) * dd, nd * d0 * d0
    g = gcd(lo, hi, q)
    return pole, lo // g, hi // g, q // g


def _read_jet(jet, lift: int) -> tuple[int, int, int] | None:
    """(g_0, g_1, q) with g = e^lift h = (g_0 + g_1 e) / q + O(e^2), from
    h's Laurent jet over its denominator q: D1 (lift 1) reads (0, c0) or,
    at a simple pole, (c_-1, c0); D2 (lift 0) reads (c0, c1) of a regular
    jet.  None when g is not regular."""
    if jet is None:
        return None
    pole, lo, hi, q = jet
    if lift:
        return (lo, hi, q) if pole else (0, lo, q)
    return None if pole else (lo, hi, q)


def _label(ctx: SingularContext, kind: str, sigma: Shift) -> tuple[bool, bool]:
    """The one label rule: (odd, fixed) for a label of B_v, odd for D2 (the
    tau-odd kind) and fixed when tau fixes sigma.  ValueError for another
    kind, a shift outside rows 1..n-1 or D2 on a tau-fixed shift."""
    if kind not in ("D1", "D2"):
        raise ValueError(f"unknown distribution kind {kind!r}")
    odd = kind == "D2"
    fixed = sigma.validate(ctx.n).component(ctx.pos_i) == sigma.component(ctx.pos_j)
    if odd and fixed:
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    return odd, fixed


def _basis_sides(ctx: SingularContext, bv: BasisVec) -> list[tuple[Shift, Fraction]]:
    """The defining element of a basis label as (shift, weight) pairs: B is
    the sum of w s for D1 and of (w / z1) s for D2.  A tau-fixed D1 label
    is one side of weight 1; the label is checked by `_label`."""
    sigma = bv.sigma
    odd, fixed = _label(ctx, bv.kind, sigma)
    if fixed:
        return [(sigma, Fraction(1))]
    return [(sigma, _HALF), (ctx.tau_of_shift(sigma), -_HALF if odd else _HALF)]


def materialize(ctx: SingularContext, bv: BasisVec) -> RingElement:
    """The defining ring element of a basis distribution, built from
    `_basis_sides`."""
    sides = _basis_sides(ctx, bv)
    if bv.kind == "D1":
        return RingElement((s, RationalFunction.constant(w)) for s, w in sides)
    return RingElement((s, RationalFunction(Polynomial.constant(w), ctx.z1_poly)) for s, w in sides)


def _column(ctx: SingularContext, a: RingElement, bv: BasisVec, jets: dict) -> DistVector:
    """ev_v o (B o A) for B = materialize(ctx, bv), read by evaluation.  The
    coefficient of B o A on t = s rho is the sum over the sides (s, w) of B
    of w s(a_rho), times 1/z1 for D2, so g_t = z1 h_t is the sum of
    w z1^lift s(a_rho), lift 1 for D1 and 0 for D2.  On the z1 line through
    v, s(a_rho) is a_rho on the z1 line through v - m(s): each term's
    Laurent jet there (`_side_jet`) is read once per side into `jets`,
    shared by the D1 and D2 columns, and a regular term adds its pair
    (`_read_jet`) with the sign of w into the target's integer sum
    [s0, s1, q] (`_add_pair`); a two-sided B, of weights +-1/2, doubles
    each q once.  A term that is not regular at v on its own is regular in
    the sum only if the other side cancels its pole, so such a target's g_t
    is summed symbolically and read at v; MembershipError when it is not
    regular there either.  g_t's order-0 coefficient goes on D2_t, its
    order-1 coefficient on D1_t, and t is reduced once for both: t and
    tau t meet on one representative, where their integer sums are added,
    and a Fraction is built only for a nonzero entry."""
    lift = 1 if bv.kind == "D1" else 0
    sides = _basis_sides(ctx, bv)
    sums: dict[Shift, list[int]] = {}
    singular: set[Shift] = set()
    for side, w in sides:
        neg = w < 0
        side_jets = jets.get(side)
        if side_jets is None:
            line = _side_line(ctx, side)
            side_jets = jets[side] = [(rho, _side_jet(h, line)) for rho, h in a.terms.items()]
        for rho, jet in side_jets:
            t = side * rho
            g = _read_jet(jet, lift)
            if g is None:
                singular.add(t)
                continue
            g0, g1, q = g
            if neg:
                g0, g1 = -g0, -g1
            _add_pair(sums, t, g0, g1, q)
    if len(sides) == 2:
        for acc in sums.values():
            acc[2] *= 2
    for t in singular:
        g = RationalFunction.zero()
        for side, w in sides:
            h = a.terms.get(side.inverse() * t)
            if h is not None:
                g += shift_subst(h, side).scale(w)
        pair = _read_jet(_side_jet(g, _side_line(ctx, Shift.identity())), lift)
        if pair is None:
            raise MembershipError("ring element has a higher-order pole at the base point")
        sums[t] = pair
    # one reduction serves both kinds: D1 is tau-even, so its sign is 1
    reps: dict[Shift, list[int]] = {}
    for t, (d2, d1, q) in sums.items():
        rep, sign = ctx.representative(t, True)
        if d2:
            if not sign:
                raise InvariantViolation(
                    f"nonzero D2 coefficient {Fraction(d2, q)} on transposition-fixed shift {t!r}"
                )
            d2 *= sign
        _add_pair(reps, rep, d2, d1, q)
    out: dict[BasisVec, Fraction] = {}
    for rep, (d2, d1, q) in reps.items():
        if d2:
            out[BasisVec("D2", rep)] = Fraction(d2, q)
        if d1:
            out[BasisVec("D1", rep)] = Fraction(d1, q)
    return DistVector._raw(out)


def _add_pair(acc: dict, key, x0: int, x1: int, q: int) -> None:
    """acc[key] += (x0, x1) / q for q > 0, each entry a list [s0, s1, p] of
    two numerators over one positive denominator: the sum is taken over
    lcm(p, q), with no other reduction, and a zero sum stays in acc."""
    s = acc.get(key)
    if s is None:
        acc[key] = [x0, x1, q]
        return
    p = s[2]
    g = gcd(p, q)
    a, b = q // g, p // g
    s[0] = s[0] * a + x0 * b
    s[1] = s[1] * a + x1 * b
    s[2] = b * q


def _linear(column, d):
    """The linear map given on labels by `column`, applied to a label or to
    a vector of one label with coefficient 1 (its column itself), or to any
    other vector: the sum of c * column(label), summed per key as one
    integer numerator over one denominator by `_add_pair` (the second
    numerator unused), with one Fraction built per nonzero key."""
    if isinstance(d, (BasisVec, Shift)):
        return column(d)
    terms = d.terms
    if len(terms) == 1:
        ((label, c),) = terms.items()
        if c == 1:
            return column(label)
    acc: dict = {}
    for label, c in terms.items():
        cn, cd = c.numerator, c.denominator
        for key, x in column(label).terms.items():
            _add_pair(acc, key, cn * x.numerator, 0, cd * x.denominator)
    return type(d)._raw({key: Fraction(n, q) for key, (n, _, q) in acc.items() if n})


def _check_invariant(ctx: SingularContext, a: RingElement) -> None:
    if not is_tau_invariant(ctx, a):
        raise MembershipError("ring element is not invariant under the transposition")


def act(
    ctx: SingularContext, a: RingElement, d: "BasisVec | DistVector"
) -> DistVector:
    """Module action: D = ev_v o B goes to ev_v o (B o A), where B o A is
    the product A * B of `gtformulas.convention()` ("star", a*b = b o a)
    written out.  Each column is read from jets of A's coefficients on z1
    lines (`_column`); no product is formed.

    A's invariance, its jets per side and its columns per label are
    memoized on A, per context, so A acting again, on any vector, reuses
    them; an equal but distinct element is checked and read afresh.  The
    check is stored only once it passes: each B is nonzero and
    tau-invariant, tau is a ring automorphism and the skew group ring has
    no zero divisors, so the product is invariant exactly when A is.  A
    returned column is shared by every caller and must not be mutated."""
    memo = getattr(a, "_act", None)  # the slot is unset until A first acts
    if memo is None:
        memo = a._act = {}
    found = memo.get(ctx)
    if found is None:
        _check_invariant(ctx, a)
        found = memo[ctx] = ({}, {})
    jets, columns = found

    def column(bv: BasisVec) -> DistVector:
        col = columns.get(bv)
        if col is None:
            col = columns[bv] = _column(ctx, a, bv, jets)
        return col

    return _linear(column, d)


def evaluate_at_v(ctx: SingularContext, a: RingElement) -> DistVector:
    """Expand ev_v o A in the distribution basis: ev_v is the basis vector
    D1[id], so this is A acting on it."""
    return act(ctx, a, _EV_V)


def act_lie(
    ctx: SingularContext, gen: GeneratorId, d: "BasisVec | DistVector"
) -> DistVector:
    """act by `phi_general`'s memoized image of E(r,s).  The image does not
    depend on n, so one element per generator serves every order, and its
    invariance check, its jets and its columns, memoized on it by `act`,
    serve every later call in the context."""
    return act(ctx, phi_general(ctx.n, *gen), d)


# --- distributions as functionals --------------------------------------------


def apply_dist(ctx: SingularContext, d: DistVector, f: Polynomial) -> Fraction:
    """d(f) for an invariant f, checked once.  Each label pairs as B(f), the
    sum of w s(f) over its sides (`_basis_sides`), divided by z1 for D2, at
    v; the sides' weights are +-w, so D1 sums its sides' values and D2
    divides the difference of its two sides, each scaled by w once."""
    if ctx.transpose(f) != f:
        raise ValueError("test function must be invariant under the transposition")
    v = ctx.v.coords
    total = Fraction(0)
    for bv, c in d.terms.items():
        sides = _basis_sides(ctx, bv)
        w = sides[0][1]
        if bv.kind == "D1":
            total += c * w * sum(shift_subst(f, s).evaluate(v) for s, _ in sides)
            continue
        (s, _), (t, _) = sides
        quot = divexact(shift_subst(f, s) - shift_subst(f, t), ctx.z1_poly)
        if quot is None:
            raise InvariantViolation("antisymmetrized test function is not divisible by z1")
        total += c * w * quot.evaluate(v)
    return total


# --- generic orbit action -----------------------------------------------------


class OrbitVector(SparseSum):
    """Finite rational combination of orbit labels (shifts) at a generic point."""

    __slots__ = ()


def generic_act_element(x: Point, a: RingElement, d: "Shift | OrbitVector") -> OrbitVector:
    """Action of a ring element on orbit labels at a generic point, extended
    linearly: on a label y, coefficients evaluated at y(x), labels composed
    through the inverse shifts (the classical displacement y(x) -> y(x) + delta)."""

    def column(y: Shift) -> OrbitVector:
        p = apply_shift(y, x).coords
        return OrbitVector((y * rho.inverse(), h.evaluate(p)) for rho, h in a.terms.items())

    return _linear(column, d)


@lru_cache(maxsize=None)
def _generic_column(x: Point, r: int, s: int, y: Shift) -> OrbitVector:
    # classify_point is cached, so a point is classified once; lru_cache
    # keeps no exception, so a singular point raises on every call.  The
    # returned vector is shared by every caller and must not be mutated.
    if classify_point(x).tag != "Generic":
        raise ValueError("generic action requires a generic point")
    return generic_act_element(x, phi_general(x.n, r, s), y)


def generic_act(x: Point, gen: GeneratorId, d: "Shift | OrbitVector") -> OrbitVector:
    """act by the image of E(r,s) on orbit labels, summed from memoized
    columns."""
    r, s = gen
    return _linear(lambda y: _generic_column(x, r, s, y), d)


# --- derivative-tableau realization ------------------------------------------


def _value_and_slope(ctx: SingularContext, g: RationalFunction) -> tuple[Fraction, Fraction]:
    """(g(v), (dg/dz1)(v)) for g = n / prod(l**e) by the quotient rule at v,
    dg/dz1 = n_z / d - g sum(e l_z / l), p_z = (dp/dx(k,i) - dp/dx(k,j)) / 2
    and each l_z a constant.  PoleError when a form vanishes at v."""
    v = ctx.v.coords
    value = g.evaluate(v)
    i, j = ctx.pos_i, ctx.pos_j
    d, s = Fraction(1), Fraction(0)
    for form, e in g.forms.items():
        lv = form.evaluate(v)
        d *= lv**e
        s += e * (form.derivative(i) - form.derivative(j)).constant_value() / lv
    n_z = (g.num.derivative(i) - g.num.derivative(j)).evaluate(v)
    return value, (n_z / d - value * s) * _HALF


def appendix_act(ctx: SingularContext, gen: GeneratorId, e: DistVector) -> DistVector:
    """Generator action through the first z1-jet of the symbolic orbit
    expansion, read by value; an independent realization.  Each input label
    is checked by `_label` before it is read.  Each target gets the slope
    on T = D1 and the value on DT = D2, except on a tau-fixed target:
    DT(v + tau z) = -DT(v + z) makes DT zero there."""
    a = phi_general(ctx.n, *gen)
    terms: list[tuple[str, Shift, Fraction]] = []
    for (kind, sigma), c in e.terms.items():
        odd, _ = _label(ctx, kind, sigma)
        for rho, h in a.terms.items():
            g = shift_subst(h, sigma)
            if not odd:
                g = multiply_by_linear(g, ctx.z1_poly)
            value, slope = _value_and_slope(ctx, g)
            target = sigma * rho
            terms.append(("D1", target, c * slope))
            if ctx.tau_of_shift(target) != target:
                terms.append(("D2", target, c * value))
    return DistVector.from_terms(ctx, terms)
