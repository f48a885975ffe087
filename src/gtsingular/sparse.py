"""Finite formal sums keyed by labels: the one storage-and-arithmetic base.

Polynomials (monomials -> int, over one denominator), shifts (positions ->
int), ring elements (shifts -> rational function) and the module vectors
(`BasisVec` labels, or shifts at a generic point, -> Fraction) are all
`SparseSum`s.  Every sum keeps one rule, `add_term`: adding to a key drops
the key when its coefficient sums to zero, so equal sums have equal dicts
and no order is kept; only `support()` and `sorted_items()` sort, for
printing.  Subclasses add their constructors and products; storage,
equality, hashing, negation, addition and scaling live here, and
`Polynomial` replaces the arithmetic with its integer kernels.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

if TYPE_CHECKING:
    from .tableau import Shift


def add_term(acc: dict, key, value) -> None:
    """acc[key] += value, dropping key when the sum is zero.  Values are
    int, Fraction or RationalFunction; each is falsy exactly at zero."""
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


class SparseSum:
    """Immutable finite sum: `terms` maps each key to a nonzero coefficient.

    Sums of different subclasses never compare equal and never add."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        acc: dict = {}
        for key, c in terms.items() if isinstance(terms, Mapping) else terms:
            add_term(acc, key, c)
        self.terms = acc
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict):
        # internal: caller guarantees canonical content
        s = cls.__new__(cls)
        s.terms = terms
        s._hash = None
        return s

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.terms.items()))
        return h

    def __neg__(self):
        return self._raw({key: -c for key, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self.terms:
            return other
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._raw(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if not c:
            return self.zero()
        if c == 1:
            return self
        return self._raw({key: q * c for key, q in self.terms.items()})

    @staticmethod
    def _sort_key(key):
        """The order of support() and sorted_items(), descending when
        _sort_reverse is set; labels sort by their `sort_key()`."""
        return key.sort_key()

    _sort_reverse = False

    def support(self) -> list:
        return sorted(self.terms, key=self._sort_key, reverse=self._sort_reverse)

    def sorted_items(self) -> list[tuple]:
        order = self._sort_key
        return sorted(self.terms.items(), key=lambda t: order(t[0]), reverse=self._sort_reverse)


class BasisVec(NamedTuple):
    """A module label: kind D1 or D2 at a shift."""

    kind: str
    sigma: Shift

    def sort_key(self):
        return (self.sigma.sort_key(), self.kind)

    def __repr__(self) -> str:
        return f"{self.kind}[{self.sigma!r}]"
