"""The distribution basis at a 1-singular point and the module action on it.

Basis vectors are indexed by shifts with ordered components at the singular
pair: D1 is the symmetrized evaluation, D2 the symmetrized first jet along
z1 scaled by 1/(2 z1).  A ring element A with tau-invariant, at most simply
singular coefficients acts on a distribution D = ev_v o B by composing on
the function side, D |-> ev_v o (B o A), and the result expands exactly in
the basis: per term h sigma with g = z1 h,

    ev_v o (h sigma) = g(v) D2_sigma + (dg/dz1)(v) D1_sigma,

followed by reduction to ordered representatives (D1 is tau-even, D2
tau-odd).  The pair (g(v), (dg/dz1)(v)) is read by evaluating the
numerator, the denominator's factors and their z1-slopes at v; no symbolic
derivative is formed.  `act` checks tau-invariance once, on A.  `act` and
`act_lie` (columns memoized per context, generator and basis vector) extend
their basis columns linearly through one helper, and `evaluate_at_v` is the
action on ev_v, itself the basis vector D1_id.  The same module is realized
on derivative-tableau symbols through the symbolic derivative
`SingularContext.partial_z1`, an independent oracle; both realizations
reduce labels by one parity rule, `SingularContext.representative`.  The
generic orbit action's vectors are `SparseSum`s of shifts (`OrbitVector`);
`generic_act` extends its columns, memoized per point, generator and label,
through the same linear helper.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .gtformulas import GeneratorId, convention, multiply, phi_general
from .poly import Polynomial, divexact
from .ratfun import PoleError, RationalFunction, multiply_by_linear
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
    if kind not in ("D1", "D2"):
        raise ValueError(f"unknown distribution kind {kind!r}")
    rep, sign = ctx.representative(sigma, kind == "D2")
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
    def from_terms(
        cls, ctx: SingularContext, terms: Iterable[tuple[str, Shift, Fraction]]
    ) -> "_ParityVector":
        acc: dict[BasisVec, Fraction] = {}
        for kind, sigma, c in terms:
            c = Fraction(c)
            if not c:
                continue
            if kind not in cls.kinds:
                raise ValueError(f"unknown {cls.noun} {kind!r}")
            rep, sign = ctx.representative(sigma, kind == cls.kinds[1])
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
        return cls._raw({bv: Fraction(1)})

    def to_json(self) -> list[dict]:
        from .textform import frac_text

        return [
            {"kind": bv.kind, "shift": bv.sigma.to_json(), "coeff": frac_text(c)}
            for bv, c in self.sorted_items()
        ]


# --- evaluation of ring elements into the basis ------------------------------


def _dz1_at_v(ctx: SingularContext, p: Polynomial) -> Fraction:
    """(dp/dz1)(v), where d/dz1 = (d/dX(k,i) - d/dX(k,j)) / 2."""
    return (p.derivative(ctx.pos_i) - p.derivative(ctx.pos_j)).evaluate(ctx.v.coords) * _HALF


def _z1_jet(ctx: SingularContext, g: RationalFunction) -> tuple[Fraction, Fraction]:
    """(g(v), (dg/dz1)(v)) by evaluation, with no symbolic derivative.  For
    g = N / prod l^e, g'/g = N'/N - sum e l'/l, so

        g'(v) = (N'(v) - N(v) sum e l'(v)/l(v)) / D(v);

    an expanded denominator D counts as one factor.  Raises PoleError when
    D(v) = 0."""
    v = ctx.v.coords
    factors = ((g.den, 1),) if g.forms is None else g.forms.items()
    den = Fraction(1)
    log_slope = Fraction(0)
    for f, e in factors:
        fv = f.evaluate(v)
        if not fv:
            raise PoleError("denominator vanishes at the given point")
        den *= fv**e
        log_slope += e * _dz1_at_v(ctx, f) / fv
    nv = g.num.evaluate(v)
    return nv / den, (_dz1_at_v(ctx, g.num) - nv * log_slope) / den


def _expand_at_v(ctx: SingularContext, a: RingElement) -> DistVector:
    """ev_v o A in the basis, for a tau-invariant A: per term h sigma with
    g = z1 h, g(v) on D2_sigma and (dg/dz1)(v) on D1_sigma."""
    terms: list[tuple[str, Shift, Fraction]] = []
    for sigma, h in a.terms.items():
        try:
            d2, d1 = _z1_jet(ctx, multiply_by_linear(h, ctx.z1_poly))
        except PoleError as exc:
            # z1*h has a pole at v: h is more than simply singular there
            raise MembershipError(
                "ring element has a higher-order pole at the base point"
            ) from exc
        if d2:
            terms.append(("D2", sigma, d2))
        if d1:
            terms.append(("D1", sigma, d1))
    return DistVector.from_terms(ctx, terms)


def materialize(ctx: SingularContext, bv: BasisVec) -> RingElement:
    """The defining ring element of a basis distribution."""
    sigma = bv.sigma
    tau_sigma = ctx.tau_of_shift(sigma)
    if bv.kind == "D1":
        half = RationalFunction.constant(_HALF)
        return RingElement([(sigma, half), (tau_sigma, half)])
    if ctx.is_tau_fixed(sigma):
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    inv = RationalFunction(Polynomial.constant(_HALF), ctx.z1_poly)
    return RingElement([(sigma, inv), (tau_sigma, -inv)])


def _linear(column, d):
    """The linear map given on labels by `column`, applied to a label (its
    column itself) or to a vector (the sum of c * column(label))."""
    if isinstance(d, (BasisVec, Shift)):
        return column(d)
    return sum((column(label).scale(c) for label, c in d.terms.items()), type(d).zero())


def act(
    ctx: SingularContext, a: RingElement, d: "BasisVec | DistVector"
) -> DistVector:
    """Module action: D = ev_v o B goes to ev_v o (B composed with A),
    with the composition side fixed by `convention()`.

    Invariance is checked once, on A: each B is nonzero and tau-invariant,
    tau is a ring automorphism and the skew group ring has no zero
    divisors, so the product is invariant exactly when A is."""
    if not is_tau_invariant(ctx, a):
        raise MembershipError("ring element is not invariant under the transposition")
    conv = convention()

    def column(bv: BasisVec) -> DistVector:
        return _expand_at_v(ctx, multiply(conv, a, materialize(ctx, bv)))

    return _linear(column, d)


def evaluate_at_v(ctx: SingularContext, a: RingElement) -> DistVector:
    """Expand ev_v o A in the distribution basis: ev_v is the basis vector
    D1[id], so this is A acting on it."""
    return act(ctx, a, _EV_V)


@lru_cache(maxsize=None)
def _lie_column(ctx: SingularContext, r: int, s: int, bv: BasisVec) -> DistVector:
    # keyed by the context object, so contexts never share columns; the
    # returned vector is shared by every caller and must not be mutated
    return act(ctx, phi_general(ctx.n, r, s), bv)


def act_lie(
    ctx: SingularContext, gen: GeneratorId, d: "BasisVec | DistVector"
) -> DistVector:
    """act by the image of E(r,s), summed from memoized basis columns."""
    r, s = gen
    return _linear(lambda bv: _lie_column(ctx, r, s, bv), d)


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
    # the point check runs once per new column; lru_cache keeps no
    # exception, so a singular point raises on every call.  The returned
    # vector is shared by every caller and must not be mutated.
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


def appendix_act(
    ctx: SingularContext, gen: GeneratorId, e: DerivTabVec
) -> DerivTabVec:
    """Generator action on tableau symbols through the first z1-jet of the
    symbolic orbit expansion; an independent realization of the module."""
    a = phi_general(ctx.n, *gen)
    v = ctx.v.coords
    terms: list[tuple[str, Shift, Fraction]] = []
    for (sym, sigma), c in e.terms.items():
        for rho, h in a.terms.items():
            g = shift_subst(h, sigma)
            if sym == "T":
                g = multiply_by_linear(g, ctx.z1_poly)
            target = sigma * rho
            terms.append(("T", target, c * ctx.partial_z1(g).evaluate(v)))
            terms.append(("DT", target, c * g.evaluate(v)))
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence(ctx: SingularContext, d: DistVector) -> DerivTabVec:
    """D1 pairs with the even symbol T, D2 with the odd symbol DT; on
    ordered representatives the map is label-preserving."""
    terms = [("T" if kind == "D1" else "DT", sigma, c) for (kind, sigma), c in d.terms.items()]
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence_inverse(ctx: SingularContext, e: DerivTabVec) -> DistVector:
    terms = [("D1" if sym == "T" else "D2", sigma, c) for (sym, sigma), c in e.terms.items()]
    return DistVector.from_terms(ctx, terms)
