"""The skew group ring of rational functions with shift operators.

Elements are finite sums sum_i f_i sigma_i.  The product twists coefficients
through the shift action on functions:

    (f sigma) o (g rho) = f * sigma(g) (sigma o rho)

extended bilinearly.  Shifts commute, so the commutator a o b - b o a is
built in one pass over the term pairs, each pair landing on one shift; a
shift-free side is factored out of its pair's two products.  `swap_vars`
exchanges two positions in shifts and coefficients, a ring automorphism
for a same-row pair such as tau's.  `scale` scales each coefficient,
which keeps its numerator's factors (`ratfun`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .poly import Polynomial, Var
from .ratfun import RationalFunction
from .sparse import SparseSum, add_term
from .tableau import Point, Shift, SingularContext, shift_subst


class RingElement(SparseSum):
    """Finite formal sum of shifts with rational-function coefficients.

    The slot `_act`, the memo of `distributions.act`, is not part of == or
    hash, and is unset until the element first acts."""

    __slots__ = ("_act",)

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
        if c == 1:
            return self
        return RingElement._raw({s: f.scale(c) for s, f in self.terms.items()})

    def swap_vars(self, a: Var, b: Var) -> "RingElement":
        """Positions a and b exchanged in every shift and coefficient."""
        return RingElement._raw({s.swap_vars(a, b): f.swap_vars(a, b) for s, f in self.terms.items()})

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


def ring_commutator(a: RingElement, b: RingElement) -> RingElement:
    """a o b - b o a in one pass over the term pairs.  Shifts commute, so
    (fa sa)(fb sb) and (fb sb)(fa sa) land on the same shift sa sb with
    coefficient fa * sa(fb) - fb * sb(fa).  A shift-free side is factored
    out: fb * (fa - sb(fa)) when sa is the identity, fa * (sa(fb) - fb)
    when sb is; for a diagonal image fa - sb(fa) is a constant, so the
    pair costs a scale."""
    out: dict[Shift, RationalFunction] = {}
    for sa, fa in a.terms.items():
        for sb, fb in b.terms.items():
            sigma = sa * sb
            if sa.is_identity():
                add_term(out, sigma, fb * (fa - shift_subst(fa, sb)))
            elif sb.is_identity():
                add_term(out, sigma, fa * (shift_subst(fb, sa) - fb))
            else:
                add_term(out, sigma, fa * shift_subst(fb, sa))
                add_term(out, sigma, -fb * shift_subst(fa, sb))
    return RingElement._raw(out)


def apply_to_function(a: RingElement, f: RationalFunction) -> RationalFunction:
    """Ring action on functions: (sum h_i sigma_i)(f) = sum h_i * sigma_i(f)."""
    out = RationalFunction.zero()
    for sigma, h in a.terms.items():
        out = out + h * shift_subst(f, sigma)
    return out


def is_tau_invariant(ctx: SingularContext, a: RingElement) -> bool:
    return ctx.transpose(a) == a


@lru_cache(maxsize=None)
def _vanishes_at(form: Polynomial, p: Point) -> bool:
    return form.evaluate(p.coords) == 0


def is_at_most_one_singular(ctx: SingularContext, a: RingElement) -> bool:
    """Every coefficient h has z1*h regular at the base point, i.e. h is
    holomorphic at v up to one simple z1 pole, the condition products of
    admissible elements satisfy.  z1*h is singular at v exactly when one of
    its forms vanishes there, which is decided once per (form, point).
    Those are h's forms with one power of z1 (monic, as i < j) cancelled,
    as `*` cancels it, so they are read off h; z1*h is not built."""
    for h in a.terms.values():
        for form, e in h.forms.items():
            if _vanishes_at(form, ctx.v) and (e > 1 or form != ctx.z1_poly):
                return False
    return True
