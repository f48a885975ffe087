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
restrict exactly to integers over one denominator each, and a jet takes
one Fraction per coefficient.  No product of linear forms is expanded to
be read: each form is one integer pair on the line, memoized there, and
`Line.product_series` multiplies the pairs, truncated.  The denominator is
always read from its forms (a polynomial term's is 1), and a numerator
from the linear factors its coefficient records (`_num_forms`, on image
coefficients and their multiples); any other from its terms by
`Polynomial.line_series`.  The weights of B's sides are 1 or +-1/2, so a
column adds each target's jets with the side's sign and halves the sum
once when B has two sides.  Order 0 of g goes on D2, order 1 on D1, and
each target is reduced to its ordered representative once, for both kinds.
Membership is decided per term from its reduced denominator, not from the
line: a term that is not regular at v on its own sends its target to an
exact symbolic sum, which is regular only when the other side cancels the
pole.  A term's jet on a line is a Laurent pair, regular (c0, c1) or at a
simple pole (c_-1, c0): D2 reads (c0, c1) of a regular jet, D1 the jet of
z1 h, (0, c0) or (c_-1, c0).  So one jet per coefficient and side serves
both kinds.  `act` keeps one memo on A itself, per context: A's
invariance, stored once the check passes, each side's jets, shared by the
D1 and D2 columns, and each label's column; each side's line is built once
per context.  An equal but distinct element starts with an empty memo, so
a memo lives exactly as long as its element.  `act_lie` is `act` by
`phi_general`'s memoized image.  `act` extends its columns linearly
through one helper: a label, or a vector of one label with coefficient 1,
is its column itself, and any other vector sums its scaled columns into
one dict.  `evaluate_at_v` is the action on ev_v, itself the basis vector
D1_id.  `appendix_act` realizes the same module on derivative-tableau
symbols, an independent oracle: it reads each coefficient's value and
z1-slope at v by the quotient rule (the symbolic derivative
`SingularContext.partial_z1` is only the tests' oracle for that rule).
Both realizations reduce labels by one parity rule,
`SingularContext.representative`.  The generic orbit action's vectors are
`SparseSum`s of shifts (`OrbitVector`); `generic_act` extends its columns,
memoized per point, generator and label, through the same linear helper.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .gtformulas import GeneratorId, phi_general
from .poly import Line, Polynomial, divexact
from .ratfun import RationalFunction, multiply_by_linear
from .skewring import RingElement, is_tau_invariant
from .sparse import BasisVec, QVector, SparseSum, add_term
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


def canonical_basis_vec(
    ctx: SingularContext, kind: str, sigma: Shift
) -> tuple[BasisVec, int]:
    """Reduce (kind, sigma) to its ordered representative; returns the sign."""
    rep, sign = ctx.representative(sigma, DistVector.parity(kind))
    if not sign:
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    return BasisVec(kind, rep), sign


class _ParityVector(QVector):
    """Combination of one tau-even and one tau-odd kind of label.  The
    parity rule is `SingularContext.representative`; `from_terms` applies it
    to every label."""

    __slots__ = ()
    kinds: tuple[str, str]  # (even, odd)
    noun: str
    # an odd label on a tau-fixed shift: zero in the quotient, or a bug
    odd_fixed_is_zero: bool

    @classmethod
    def parity(cls, kind: str) -> int:
        """0 for the even kind, 1 for the odd one; ValueError for any other."""
        if kind not in cls.kinds:
            raise ValueError(f"unknown {cls.noun} {kind!r}")
        return cls.kinds.index(kind)

    @classmethod
    def from_terms(
        cls, ctx: SingularContext, terms: Iterable[tuple[str, Shift, Fraction]]
    ) -> "_ParityVector":
        acc: dict[BasisVec, Fraction] = {}
        for kind, sigma, c in terms:
            c = Fraction(c)
            if not c:
                continue
            rep, sign = ctx.representative(sigma, cls.parity(kind))
            if sign:
                add_term(acc, BasisVec(kind, rep), sign * c)
            elif not cls.odd_fixed_is_zero:
                raise InvariantViolation(
                    f"nonzero {kind} coefficient {c} on transposition-fixed shift {sigma!r}"
                )
        return cls._raw(acc)


class DistVector(_ParityVector):
    """Finite rational combination of canonical basis distributions."""

    __slots__ = ()
    kinds = ("D1", "D2")
    noun = "distribution kind"
    odd_fixed_is_zero = False

    @classmethod
    def basis(cls, bv: BasisVec) -> "DistVector":
        cls.parity(bv.kind)
        return cls._raw({bv: Fraction(1)})

    def to_json(self) -> list[dict]:
        from .textform import frac_text

        return [
            {"kind": bv.kind, "shift": bv.sigma.to_json(), "coeff": frac_text(c)}
            for bv, c in self.sorted_items()
        ]


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
) -> tuple[bool, Fraction, Fraction] | None:
    """h's Laurent jet on the z1 line (kernel, zform) of `_side_line`, where
    x(k,i) = base + e/2, x(k,j) = base - e/2 and zform = e: (False, c0, c1)
    when h = c0 + c1 e + O(e^2) is regular at the base point, (True, c_-1,
    c0) when h = c_-1/e + c0 + O(e) has a simple pole there, None
    otherwise.  h is reduced, so it is regular there exactly when its
    reduced denominator does not vanish there, and has a simple pole when
    that denominator is zform times one that does not.  One jet serves
    both kinds; `_read_jet` gives each kind its pair.  The series are
    integers over one denominator each, N / nd for the numerator and D / dd
    for the denominator, so c0 = N0 dd / (nd D0) and c1 = (N1 D0 - D1 N0) dd
    / (nd D0^2).  The denominator series is the product of its forms'
    (`Line.product_series`), (1, 0, 0) over 1 for a polynomial.  When h
    carries its numerator's factors, num = unit * prod(form**e) (the
    `_num_forms` memo), num's series is the unit times their product's,
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
    return pole, Fraction(n0 * dd, nd * d0), Fraction((n1 * d0 - den[1] * n0) * dd, nd * d0 * d0)


def _read_jet(jet, lift: int) -> tuple[Fraction, Fraction] | None:
    """(g_0, g_1) with g = e^lift h = g_0 + g_1 e + O(e^2), from h's Laurent
    jet: D1 (lift 1) reads (0, c0) or, at a simple pole, (c_-1, c0); D2
    (lift 0) reads (c0, c1) of a regular jet.  None when g is not regular."""
    if jet is None:
        return None
    pole, lo, hi = jet
    if lift:
        return (lo, hi) if pole else (0, lo)
    return None if pole else (lo, hi)


def _basis_sides(ctx: SingularContext, bv: BasisVec) -> list[tuple[Shift, Fraction]]:
    """The defining element of a basis label as (shift, weight) pairs: B is
    the sum of w s for D1 and of (w / z1) s for D2.  A tau-fixed D1 label
    is one side of weight 1.  ValueError for a label of another kind."""
    odd = DistVector.parity(bv.kind)
    sigma = bv.sigma
    tau_sigma = ctx.tau_of_shift(sigma)
    if not odd:
        if sigma == tau_sigma:
            return [(sigma, Fraction(1))]
        return [(sigma, _HALF), (tau_sigma, _HALF)]
    if sigma == tau_sigma:
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    return [(sigma, _HALF), (tau_sigma, -_HALF)]


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
    shared by the D1 and D2 columns, a regular term adds its pair
    (`_read_jet`) with the sign of w, and a two-sided B halves each
    target's sum once.  g_t's order-0 coefficient goes on D2_t, its order-1
    coefficient on D1_t, and t is reduced once for both.  A term that is
    not regular at v on its own is regular in the sum only if the other
    side cancels its pole, so such a target's g_t is summed symbolically
    and read at v; MembershipError when it is not regular there either."""
    lift = 1 if bv.kind == "D1" else 0
    sides = _basis_sides(ctx, bv)
    sums: dict[Shift, list[Fraction]] = {}
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
            g0, g1 = g
            if neg:
                g0, g1 = -g0, -g1
            acc = sums.get(t)
            if acc is None:
                sums[t] = [g0, g1]
            else:
                acc[0] += g0
                acc[1] += g1
    if len(sides) == 2:
        for acc in sums.values():
            acc[0] *= _HALF
            acc[1] *= _HALF
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
    out: dict[BasisVec, Fraction] = {}
    for t, (d2, d1) in sums.items():
        # one reduction serves both kinds: D1 is tau-even, so its sign is 1
        rep, sign = ctx.representative(t, True)
        if d2:
            if not sign:
                raise InvariantViolation(
                    f"nonzero D2 coefficient {d2} on transposition-fixed shift {t!r}"
                )
            add_term(out, BasisVec("D2", rep), sign * d2)
        add_term(out, BasisVec("D1", rep), d1)
    return DistVector._raw(out)


def _linear(column, d):
    """The linear map given on labels by `column`, applied to a label or to
    a vector of one label with coefficient 1 (its column itself), or to any
    other vector (the sum of c * column(label), summed in one dict)."""
    if isinstance(d, (BasisVec, Shift)):
        return column(d)
    terms = d.terms
    if len(terms) == 1:
        ((label, c),) = terms.items()
        if c == 1:
            return column(label)
    acc: dict = {}
    for label, c in terms.items():
        for key, x in column(label).terms.items():
            add_term(acc, key, c * x)
    return type(d)._raw(acc)


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
    """act by the image of E(r,s).  `phi_general` returns one element per
    generator, so the image's invariance check, its jets and its columns,
    memoized on it by `act`, serve every later call in the context."""
    return act(ctx, phi_general(ctx.n, *gen), d)


# --- distributions as functionals --------------------------------------------


def check_invariant_function(ctx: SingularContext, f: Polynomial) -> Polynomial:
    if ctx.transpose(f) != f:
        raise ValueError("test function must be invariant under the transposition")
    return f


def dist_functional(
    ctx: SingularContext, kind: str, sigma: Shift, f: Polynomial
) -> Fraction:
    """Value of D1/D2 at any shift label (not necessarily ordered) on an
    invariant polynomial test function."""
    check_invariant_function(ctx, f)
    v = ctx.v.coords
    tau_sigma = ctx.tau_of_shift(sigma)
    if kind == "D1":
        total = shift_subst(f, sigma).evaluate(v) + shift_subst(f, tau_sigma).evaluate(v)
        return total * _HALF
    if kind != "D2":
        raise ValueError(f"unknown distribution kind {kind!r}")
    if sigma == tau_sigma:
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    diff = shift_subst(f, sigma) - shift_subst(f, tau_sigma)
    quot = divexact(diff, ctx.z1_poly)
    if quot is None:
        raise InvariantViolation(
            "antisymmetrized test function is not divisible by z1"
        )
    return quot.evaluate(v) * _HALF


def apply_dist(ctx: SingularContext, d: DistVector, f: Polynomial) -> Fraction:
    check_invariant_function(ctx, f)
    total = Fraction(0)
    for bv, c in d.terms.items():
        total += c * dist_functional(ctx, bv.kind, bv.sigma, f)
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


class DerivTabVec(_ParityVector):
    """Combination of tableau symbols T (tau-even) and DT (tau-odd)."""

    __slots__ = ()
    kinds = ("T", "DT")
    noun = "tableau symbol"
    # the odd relation gives 2*DT = 0 on fixed shifts, so the symbol itself
    # is zero in the quotient
    odd_fixed_is_zero = True


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


def appendix_act(
    ctx: SingularContext, gen: GeneratorId, e: DerivTabVec
) -> DerivTabVec:
    """Generator action on tableau symbols through the first z1-jet of the
    symbolic orbit expansion, read by value; an independent realization."""
    a = phi_general(ctx.n, *gen)
    terms: list[tuple[str, Shift, Fraction]] = []
    for (sym, sigma), c in e.terms.items():
        even = not DerivTabVec.parity(sym)
        for rho, h in a.terms.items():
            g = shift_subst(h, sigma)
            if even:
                g = multiply_by_linear(g, ctx.z1_poly)
            value, slope = _value_and_slope(ctx, g)
            target = sigma * rho
            terms.append(("T", target, c * slope))
            terms.append(("DT", target, c * value))
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence(ctx: SingularContext, d: DistVector) -> DerivTabVec:
    """D1 pairs with the even symbol T, D2 with the odd symbol DT; on
    ordered representatives the map is label-preserving."""
    terms = [(DerivTabVec.kinds[DistVector.parity(kind)], sigma, c)
             for (kind, sigma), c in d.terms.items()]
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence_inverse(ctx: SingularContext, e: DerivTabVec) -> DistVector:
    terms = [(DistVector.kinds[DerivTabVec.parity(sym)], sigma, c)
             for (sym, sigma), c in e.terms.items()]
    return DistVector.from_terms(ctx, terms)
