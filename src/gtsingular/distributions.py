"""The distribution basis at a 1-singular point and the module action on it.

Basis vectors are indexed by shifts with ordered components at the singular
pair: D1 is the symmetrized evaluation, D2 the symmetrized first jet along
z1 scaled by 1/(2 z1).  A ring element A with tau-invariant, at most simply
singular coefficients acts on a distribution D = ev_v o B by composing on
the function side, D |-> ev_v o (B o A), and the result expands exactly in
the basis: per term h sigma with g = z1 h,

    ev_v o (h sigma) = g(v) D2_sigma + (dg/dz1)(v) D1_sigma,

followed by reduction to ordered representatives (D1 is tau-even, D2
tau-odd).  The same module is realized on derivative-tableau symbols, which
serves as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .gtformulas import GeneratorId, convention, multiply, phi_general
from .poly import Polynomial, divexact
from .ratfun import PoleError, RationalFunction, multiply_by_linear
from .skewring import RingElement, is_tau_invariant
from .sparse import BasisVec, QVector, add_term
from .tableau import (
    Point,
    Shift,
    SingularContext,
    apply_shift,
    classify_point,
    shift_subst,
)

_HALF = Fraction(1, 2)


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
    rep, flipped = ctx.delta_representative(sigma)
    if kind == "D2" and ctx.is_tau_fixed(sigma):
        raise ValueError("D2 is undefined on a transposition-fixed shift")
    sign = -1 if (kind == "D2" and flipped) else 1
    return BasisVec(kind, rep), sign


class DistVector(QVector):
    """Finite rational combination of canonical basis distributions."""

    __slots__ = ()

    @classmethod
    def from_terms(
        cls,
        ctx: SingularContext,
        terms: Iterable[tuple[str, Shift, Fraction]],
    ) -> "DistVector":
        acc: dict[BasisVec, Fraction] = {}
        for kind, sigma, c in terms:
            c = Fraction(c)
            if not c:
                continue
            if kind == "D2" and ctx.is_tau_fixed(sigma):
                raise InvariantViolation(
                    f"nonzero D2 coefficient {c} on transposition-fixed shift {sigma!r}"
                )
            bv, sign = canonical_basis_vec(ctx, kind, sigma)
            add_term(acc, bv, sign * c)
        return cls._raw(acc)

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


def evaluate_at_v(ctx: SingularContext, a: RingElement) -> DistVector:
    """Expand ev_v o A in the distribution basis, term by term."""
    if not is_tau_invariant(ctx, a):
        raise MembershipError("ring element is not invariant under the transposition")
    v = ctx.v.coords
    terms: list[tuple[str, Shift, Fraction]] = []
    for sigma, h in a.terms.items():
        g = multiply_by_linear(h, ctx.z1_poly)
        try:
            d2 = g.evaluate(v)
        except PoleError as exc:
            # z1*h has a pole at v: h is more than simply singular there
            raise MembershipError(
                "ring element has a higher-order pole at the base point"
            ) from exc
        d1 = ctx.partial_z1(g).evaluate(v)
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


def act(
    ctx: SingularContext, a: RingElement, d: "BasisVec | DistVector"
) -> DistVector:
    """Module action: D = ev_v o B goes to ev_v o (B composed with A),
    with the composition side fixed by `convention()`."""
    if isinstance(d, BasisVec):
        d = DistVector.basis(d)
    conv = convention()
    out = DistVector.zero()
    for bv, c in d.terms.items():
        composed = multiply(conv, a, materialize(ctx, bv))
        out = out + evaluate_at_v(ctx, composed).scale(c)
    return out


def act_lie(
    ctx: SingularContext, gen: GeneratorId, d: "BasisVec | DistVector"
) -> DistVector:
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


def generic_act_element(x: Point, a: RingElement, y: Shift) -> dict[Shift, Fraction]:
    """Action of a ring element on the orbit label y at a generic point:
    coefficients evaluated at y(x), labels composed through the inverse
    shifts (the classical displacement y(x) -> y(x) + delta)."""
    p = apply_shift(y, x)
    out: dict[Shift, Fraction] = {}
    for rho, h in a.terms.items():
        add_term(out, y * rho.inverse(), h.evaluate(p.coords))
    return out


def generic_act(x: Point, gen: GeneratorId, y: Shift) -> dict[Shift, Fraction]:
    if classify_point(x).tag != "Generic":
        raise ValueError("generic action requires a generic point")
    return generic_act_element(x, phi_general(x.n, *gen), y)


# --- derivative-tableau realization ------------------------------------------


class DerivTabVec(QVector):
    """Combination of tableau symbols T (tau-even) and DT (tau-odd)."""

    __slots__ = ()

    @classmethod
    def from_terms(
        cls,
        ctx: SingularContext,
        terms: Iterable[tuple[str, Shift, Fraction]],
    ) -> "DerivTabVec":
        acc: dict[BasisVec, Fraction] = {}
        for sym, sigma, c in terms:
            c = Fraction(c)
            if not c:
                continue
            if sym not in ("T", "DT"):
                raise ValueError(f"unknown tableau symbol {sym!r}")
            rep, flipped = ctx.delta_representative(sigma)
            if sym == "DT":
                if ctx.is_tau_fixed(sigma):
                    # the odd relation gives 2*DT = 0 on fixed shifts, so the
                    # symbol itself is zero in the quotient
                    continue
                if flipped:
                    c = -c
            add_term(acc, BasisVec(sym, rep), c)
        return cls._raw(acc)


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
            cfn = shift_subst(h, sigma)
            target = sigma * rho
            if sym == "T":
                g = multiply_by_linear(cfn, ctx.z1_poly)
                terms.append(("T", target, c * ctx.partial_z1(g).evaluate(v)))
                terms.append(("DT", target, c * g.evaluate(v)))
            else:
                terms.append(("T", target, c * ctx.partial_z1(cfn).evaluate(v)))
                terms.append(("DT", target, c * cfn.evaluate(v)))
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence(ctx: SingularContext, d: DistVector) -> DerivTabVec:
    """D1 pairs with the even symbol T, D2 with the odd symbol DT; on
    ordered representatives the map is label-preserving."""
    terms = []
    for bv, c in d.terms.items():
        tau_sigma = ctx.tau_of_shift(bv.sigma)
        if bv.kind == "D1":
            terms.append(("T", bv.sigma, c * _HALF))
            terms.append(("T", tau_sigma, c * _HALF))
        else:
            terms.append(("DT", bv.sigma, c * _HALF))
            terms.append(("DT", tau_sigma, -c * _HALF))
    return DerivTabVec.from_terms(ctx, terms)


def basis_correspondence_inverse(ctx: SingularContext, e: DerivTabVec) -> DistVector:
    terms = []
    for (sym, sigma), c in e.terms.items():
        terms.append(("D1" if sym == "T" else "D2", sigma, c))
    return DistVector.from_terms(ctx, terms)
