"""The skew group ring of rational functions with shift operators.

Elements are finite sums sum_i f_i sigma_i.  The product twists coefficients
through the shift action on functions:

    (f sigma) o (g rho) = f * sigma(g) (sigma o rho)

extended bilinearly.  The opposite multiplication A * B := B o A is carried
alongside; the transposition of a singular pair acts as a ring automorphism.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .ratfun import RationalFunction, multiply_by_linear
from .sparse import add_term
from .tableau import Shift, SingularContext, shift_subst


class RingElement:
    """Finite formal sum of shifts with rational-function coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(
        self,
        terms: Mapping[Shift, RationalFunction] | Iterable[tuple[Shift, RationalFunction]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Shift, RationalFunction] = {}
        for sigma, f in items:
            add_term(clean, sigma, f)
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict[Shift, RationalFunction]) -> "RingElement":
        a = cls.__new__(cls)
        a.terms = terms
        a._hash = None
        return a

    @classmethod
    def zero(cls) -> "RingElement":
        return cls._raw({})

    @classmethod
    def one(cls) -> "RingElement":
        return cls._raw({Shift.identity(): RationalFunction.one()})

    @classmethod
    def term(cls, coeff: RationalFunction, sigma: Shift) -> "RingElement":
        if coeff.is_zero():
            return cls.zero()
        return cls._raw({sigma: coeff})

    def support(self) -> list[Shift]:
        return sorted(self.terms, key=Shift.sort_key)

    def coeff(self, sigma: Shift) -> RationalFunction:
        return self.terms.get(sigma, RationalFunction.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingElement) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.terms.items()))
        return h

    def __neg__(self) -> "RingElement":
        return RingElement._raw({s: -f for s, f in self.terms.items()})

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        out = dict(self.terms)
        for s, f in other.terms.items():
            add_term(out, s, f)
        return RingElement._raw(out)

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        if not c:
            return RingElement.zero()
        return RingElement._raw({s: f.scale(c) for s, f in self.terms.items()})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        from .textform import rf_text

        return " + ".join(
            f"({rf_text(self.terms[s])}) {s!r}" for s in self.support()
        )

    def to_json(self) -> list[dict]:
        from .textform import rf_text

        return [
            {"shift": s.to_json(), "coeff": rf_text(self.terms[s])}
            for s in self.support()
        ]


def ring_mul_circ(a: RingElement, b: RingElement) -> RingElement:
    out: dict[Shift, RationalFunction] = {}
    for sa, fa in a.terms.items():
        for sb, fb in b.terms.items():
            add_term(out, sa * sb, fa * shift_subst(fb, sa))
    return RingElement._raw(out)


def ring_mul_star(a: RingElement, b: RingElement) -> RingElement:
    """The opposite multiplication A * B := B o A."""
    return ring_mul_circ(b, a)


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
            if g.den.evaluate(coords) == 0:
                return False
    return True
