"""Tableau points, the shift group, point classification, and singular data.

A point assigns a rational to every position (k, i), 1 <= i <= k <= n.  The
shift group is the free abelian group on positions of rows 1..n-1, acting by
integer translation of those coordinates.  A point is generic when no two
same-row coordinates differ by an integer, 1-singular when exactly one
same-row pair does.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple, TypeVar

from .poly import Polynomial, Var, check_var
from .ratfun import RationalFunction
from .sparse import SparseSum

RF = TypeVar("RF", Polynomial, RationalFunction)


def positions(n: int) -> Iterator[Var]:
    for k in range(1, n + 1):
        for i in range(1, k + 1):
            yield (k, i)


class Shift(SparseSum):
    """Element of the free abelian shift group: a finite sum of positions
    (k, i) with nonzero integer components, written multiplicatively.  The
    group law is component addition, so the product, inverse and identity
    are the sum's addition, negation and zero."""

    __slots__ = ()

    def __init__(self, components: Mapping[Var, int] | Iterable[tuple[Var, int]] = ()):
        super().__init__(components)
        for v, m in self.terms.items():
            check_var(v)
            if int(m) != m:
                raise ValueError(f"shift component {m!r} at {v} is not an integer")
            self.terms[v] = int(m)

    _sort_key = staticmethod(tuple)  # positions sort ascending

    @classmethod
    def identity(cls) -> "Shift":
        return cls._raw({})

    @classmethod
    def generator(cls, k: int, i: int, power: int = 1) -> "Shift":
        return cls({(k, i): power})

    def component(self, v: Var) -> int:
        return self.terms.get(v, 0)

    __mul__ = SparseSum.__add__
    inverse = SparseSum.__neg__
    is_identity = SparseSum.is_zero

    def scale(self, e) -> "Shift":
        """sigma^e for an integer e."""
        return Shift({v: m * e for v, m in self.terms.items()})

    __pow__ = scale

    def sort_key(self):
        return tuple(self.sorted_items())

    def validate(self, n: int) -> "Shift":
        for k, _i in self.terms:
            if k > n - 1:
                raise ValueError(f"shift touches row {k}, beyond rows 1..{n - 1}")
        return self

    def to_json(self) -> dict[str, int]:
        return {f"({k},{i})": m for (k, i), m in self.sorted_items()}

    def __repr__(self) -> str:
        if not self.terms:
            return "id"
        return "*".join(
            f"σ[{k},{i}]" + (f"^{m}" if m != 1 else "")
            for (k, i), m in self.sorted_items()
        )


def shift_subst(f: RF, sigma: Shift) -> RF:
    """Image of f (a polynomial or a rational function) under sigma:
    substitute X(k,i) -> X(k,i) - m(k,i), on integers: the numerator keeps
    its den and content, and a form moves only its constant."""
    if sigma.is_identity():
        return f
    return f.subs_offsets(sigma.terms)


class Point:
    """Total rational coordinate assignment for a tableau of order n."""

    __slots__ = ("n", "coords", "_hash")

    def __init__(self, n: int, coords: Mapping[Var, Fraction]):
        if n < 2:
            raise ValueError("order must be at least 2")
        full = {}
        for v in positions(n):
            if v not in coords:
                raise ValueError(f"missing coordinate for position {v}")
            full[v] = Fraction(coords[v])
        if len(coords) != len(full):
            extra = set(coords) - set(full)
            raise ValueError(f"unexpected positions {sorted(extra)}")
        self.n = n
        self.coords = full
        self._hash = None

    @classmethod
    def _raw(cls, n: int, coords: dict[Var, Fraction]) -> "Point":
        # internal: coords holds a Fraction for every position of order n
        p = cls.__new__(cls)
        p.n, p.coords, p._hash = n, coords, None
        return p

    def __getitem__(self, v: Var) -> Fraction:
        return self.coords[v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.n == other.n and self.coords == other.coords

    def __hash__(self) -> int:
        # every memo keyed by a point hashes it; the coordinates never change
        if self._hash is None:
            self._hash = hash((self.n, tuple(sorted(self.coords.items()))))
        return self._hash

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "Point":
        rows = [list(r) for r in rows]
        n = len(rows)
        coords = {}
        for k, row in enumerate(rows, start=1):
            if len(row) != k:
                raise ValueError(f"row {k} must have {k} entries, got {len(row)}")
            for i, val in enumerate(row, start=1):
                coords[(k, i)] = Fraction(val)
        return cls(n, coords)

    def rows(self) -> list[list[Fraction]]:
        return [[self.coords[(k, i)] for i in range(1, k + 1)] for k in range(1, self.n + 1)]

    def to_json(self) -> dict:
        from .textform import frac_text

        return {"n": self.n, "rows": [[frac_text(c) for c in row] for row in self.rows()]}

    @classmethod
    def from_json(cls, data) -> "Point":
        """The point of a JSON object {"n": order, "rows": [[entry, ...],
        ...]}, each entry a rational string; ValueError naming what is
        wrong with any other shape."""
        from .textform import parse_frac

        if not isinstance(data, dict):
            raise ValueError(f"a point must be a JSON object, got {type(data).__name__}")
        for key in ("n", "rows"):
            if key not in data:
                raise ValueError(f"a point needs the key {key!r}")
        n = data["n"]
        # a float, a numeric string or a bool is not read as an order
        if type(n) is not int:
            raise ValueError(f"the order n must be a JSON integer, got {n!r}")
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("the point's rows must be a list of lists")
        rows = [[parse_frac(s) for s in row] for row in rows]
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        return cls.from_rows(rows)

    @classmethod
    def load(cls, path) -> "Point":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self) -> str:
        return f"Point(n={self.n}, rows={self.rows()!r})"


def apply_shift(sigma: Shift, p: Point) -> Point:
    """sigma(p): p with sigma's components added.  The shift is validated
    for p's order; p's coordinates are already complete Fractions and a
    shift adds integers, so the new point is built without checking them
    again."""
    sigma.validate(p.n)
    coords = dict(p.coords)
    for v, m in sigma.terms.items():
        coords[v] += m
    return Point._raw(p.n, coords)


class PointClass(NamedTuple):
    tag: str  # "Generic" | "OneSingular" | "Other"
    pair: tuple[int, int, int] | None = None

    def __str__(self) -> str:
        if self.tag == "OneSingular":
            k, i, j = self.pair
            return f"OneSingular({k},{i},{j})"
        return self.tag


@lru_cache(maxsize=None)
def classify_point(p: Point) -> PointClass:
    """Count same-row integer differences: none = Generic, one = OneSingular."""
    witness = None
    count = 0
    for k in range(2, p.n + 1):
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                if (p[(k, i)] - p[(k, j)]).denominator == 1:
                    count += 1
                    witness = (k, i, j)
    if count == 0:
        return PointClass("Generic")
    if count == 1:
        return PointClass("OneSingular", witness)
    return PointClass("Other")


class SingularContext:
    """Singular pair data at a 1-singular base point with equal pair values.

    The point alone fixes the context: its one same-row integer pair
    (k, i, j), as `classify_point` reads it, is the singular pair.  Holds
    the order n, that pair, the point v with v(k,i) = v(k,j), the vanishing
    linear form z1 = X(k,i) - X(k,j), and the transposition of the two
    columns.  ValueError for a point that is not 1-singular, whose pair lies
    in the bottom row, or whose pair values differ.
    """

    def __init__(self, v: Point):
        n = v.n
        cls = classify_point(v)
        if cls.tag != "OneSingular":
            raise ValueError(f"point classifies as {cls}, not OneSingular")
        k, i, j = cls.pair
        if k == n:
            raise ValueError(
                "singular pair in the bottom row produces no singular denominators; "
                "context rejected"
            )
        if v[(k, i)] != v[(k, j)]:
            raise ValueError("base point must take equal values on the singular pair")
        self.n = n
        self.k = k
        self.i = i
        self.j = j
        self.v = v
        self.pos_i: Var = (k, i)
        self.pos_j: Var = (k, j)
        self.z1_poly = Polynomial.variable(k, i) - Polynomial.variable(k, j)
        self.z1 = RationalFunction.from_poly(self.z1_poly)

    # -- transposition action ------------------------------------------------

    def tau_of_shift(self, sigma: Shift) -> Shift:
        mi = sigma.component(self.pos_i)
        mj = sigma.component(self.pos_j)
        if mi == mj:
            return sigma
        out = dict(sigma.terms)
        out.pop(self.pos_i, None)
        out.pop(self.pos_j, None)
        if mj:
            out[self.pos_i] = mj
        if mi:
            out[self.pos_j] = mi
        return Shift._raw(out)

    def representative(self, sigma: Shift, odd: bool) -> tuple[Shift, int]:
        """The label's ordered representative, with component(k,i) <=
        component(k,j), and the sign its coefficient takes there: a tau-odd
        label changes sign when tau moves it and is zero on a tau-fixed
        shift; a tau-even label keeps its coefficient."""
        mi = sigma.component(self.pos_i)
        mj = sigma.component(self.pos_j)
        if mi < mj:
            return sigma, 1
        if mi == mj:
            return sigma, 0 if odd else 1
        return self.tau_of_shift(sigma), -1 if odd else 1

    def transpose(self, f: RF) -> RF:
        """Swap the two singular columns in a polynomial or rational function."""
        return f.swap_vars(self.pos_i, self.pos_j)

    def __repr__(self) -> str:
        return f"SingularContext(n={self.n}, pair=({self.k},{self.i},{self.j}))"


def canonical_test_point(n: int = 3) -> Point:
    """The shipped base point: equal singular pair in row 2, all other
    coordinates with pairwise distinct prime denominators."""
    if n != 3:
        raise ValueError("a canonical test point is shipped for order 3 only")
    return Point.from_rows(
        [
            [Fraction(1, 5)],
            [Fraction(1, 3), Fraction(1, 3)],
            [Fraction(1, 7), Fraction(2, 11), Fraction(3, 13)],
        ]
    )


@lru_cache(maxsize=None)
def canonical_context(n: int = 3) -> SingularContext:
    """The shipped context, one per order: memos keyed by it are shared."""
    return SingularContext(canonical_test_point(n))
