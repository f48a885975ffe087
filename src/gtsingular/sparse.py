"""Finite sums keyed by labels, with exact coefficients.

Every sparse sum in the package keeps one rule: adding to a key drops the
key when its coefficient sums to zero, so equal sums have equal dicts.
`add_term` is that rule.  `QVector` is the rational combination of
(kind, shift) labels on which the distribution vectors and the
derivative-tableau vectors are built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .tableau import Shift


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value, dropping key when the sum is zero.  Values are
    Fraction or RationalFunction; both are falsy exactly at zero."""
    if not value:
        return
    if key in acc:
        s = acc[key] + value
        if s:
            acc[key] = s
        else:
            del acc[key]
    else:
        acc[key] = value


class BasisVec(NamedTuple):
    """A label: D1/D2 for distributions, T/DT for tableau symbols."""

    kind: str
    sigma: Shift

    def sort_key(self):
        return (self.sigma.sort_key(), self.kind)

    def __repr__(self) -> str:
        return f"{self.kind}[{self.sigma!r}]"


class QVector:
    """Finite rational combination of labels.  Subclasses differ only in how
    from_terms reduces a label to its canonical representative."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[tuple[str, Shift], Fraction] | None = None):
        self.coeffs = {
            BasisVec(*key): Fraction(c) for key, c in (coeffs or {}).items() if c
        }

    @classmethod
    def _raw(cls, coeffs: dict[BasisVec, Fraction]):
        v = cls.__new__(cls)
        v.coeffs = coeffs
        return v

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            add_term(out, key, c)
        return self._raw(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return self._raw({key: q * c for key, q in self.coeffs.items()} if c else {})

    def sorted_items(self) -> list[tuple[BasisVec, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: t[0].sort_key())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{key!r}" for key, c in self.sorted_items())
