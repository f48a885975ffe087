"""The skew group ring of rational functions with shift operators.

Elements are finite sums sum_i f_i sigma_i.  The product twists coefficients
through the shift action on functions:

    (f sigma) o (g rho) = f * sigma(g) (sigma o rho)

extended bilinearly.  The transposition of a singular pair acts as a ring
automorphism.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfun import RationalFunction, multiply_by_linear
from .sparse import SparseSum, add_term
from .tableau import Shift, SingularContext, shift_subst


class RingElement(SparseSum):
    """Finite formal sum of shifts with rational-function coefficients."""

    __slots__ = ()

    # in the class dict, where perfbench's tracer wraps RingElement.__add__
    __add__ = SparseSum.__add__

    @classmethod
    def one(cls) -> "RingElement":
        return cls._raw({Shift.identity(): RationalFunction.one()})

    @classmethod
    def term(cls, coeff: RationalFunction, sigma: Shift) -> "RingElement":
        if coeff.is_zero():
            return cls.zero()
        return cls._raw({sigma: coeff})

    def coeff(self, sigma: Shift) -> RationalFunction:
        return self.terms.get(sigma, RationalFunction.zero())

    def scale(self, c) -> "RingElement":
        # coefficients are rational functions: scale their numerators
        c = Fraction(c)
        if not c:
            return RingElement.zero()
        return RingElement._raw({s: f.scale(c) for s, f in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        from .textform import rf_text

        return " + ".join(f"({rf_text(f)}) {s!r}" for s, f in self.sorted_items())

    def to_json(self) -> list[dict]:
        from .textform import rf_text

        return [{"shift": s.to_json(), "coeff": rf_text(f)} for s, f in self.sorted_items()]


def ring_mul_circ(a: RingElement, b: RingElement) -> RingElement:
    out: dict[Shift, RationalFunction] = {}
    for sa, fa in a.terms.items():
        for sb, fb in b.terms.items():
            add_term(out, sa * sb, fa * shift_subst(fb, sa))
    return RingElement._raw(out)


def apply_to_function(a: RingElement, f: RationalFunction) -> RationalFunction:
    """Ring action on functions: (sum h_i sigma_i)(f) = sum h_i * sigma_i(f)."""
    out = RationalFunction.zero()
    for sigma, h in a.terms.items():
        out = out + h * shift_subst(f, sigma)
    return out


def group_act_on_ring(ctx: SingularContext, a: RingElement) -> RingElement:
    """Action of the singular-pair transposition: coefficients transposed,
    shift components at the pair swapped.  An involutive ring automorphism."""
    out: dict[Shift, RationalFunction] = {}
    for s, f in a.terms.items():
        add_term(out, ctx.tau_of_shift(s), ctx.transpose(f))
    return RingElement._raw(out)


def is_tau_invariant(ctx: SingularContext, a: RingElement) -> bool:
    return group_act_on_ring(ctx, a) == a


def is_at_most_one_singular(
    ctx: SingularContext, a: RingElement, *, orbit_check: bool = False
) -> bool:
    """Every coefficient h has z1*h regular at the base point, i.e. h is
    holomorphic at v up to one simple z1 pole.

    With orbit_check the (strictly stronger) input-side gate also requires
    z1*h regular at every support translate sigma(v); products of admissible
    elements satisfy the pointwise condition but not the orbit one, so the
    default matches what products must pass.
    """
    check_points = [ctx.v.coords]
    if orbit_check:
        check_points += [ctx.orbit_point(s).coords for s in a.support()]
    for h in a.terms.values():
        g = multiply_by_linear(h, ctx.z1_poly)
        for coords in check_points:
            if g.den_value(coords) == 0:
                return False
    return True
