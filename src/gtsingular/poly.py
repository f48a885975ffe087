"""Sparse multivariate polynomials over the rationals, stored as integer
numerators over one common denominator.

Variables are tableau positions (row, col) with 1 <= col <= row <= MAX_ORDER.
A monomial is one packed integer of 16-bit fields (packed exponent vectors:
Monagan & Pearce, CASC 2007): the total degree in the lowest field, then one
exponent field per position, (1,1) just above the degree, then (2,1), (2,2),
(3,1) and so on.  A monomial over the positions of order n thus fits in
16 * (n(n+1)/2 + 1) bits, whatever MAX_ORDER is, and a product of monomials
is one addition.  Integer comparison is lex order with later positions
ranked higher, a monomial order; the canonical graded-lex order (total
degree first, then earlier positions ranked higher), which fixes print
order, leading terms and signs, is the order of `mono_key`.  Every degree
stays below 2^15 (a larger product raises ValueError), so no exponent field
carries into the next.

A polynomial is `terms` / `den`: `terms` maps monomials to nonzero ints and
`den` is a positive int prime to their content, zero is ({}, 1).  This
content/primitive form is canonical (Geddes, Czapor & Labahn, *Algorithms
for Computer Algebra*, 1992, ch. 2), so structural equality is equality.
Arithmetic, exact division and evaluation run on integers only, and
`_normal` divides out gcd(den, content) where an operation can change it;
a shift by integers is unimodular over Z and keeps both.  Fractions appear
only at the boundary: the `Polynomial(mapping)`, `term` and `constant`
constructors take them, `constant_value`, `leading_coeff` and `evaluate`
return them.  The one exact division, `divexact`, divides by a constant or
a linear form only: synthetic division in the form's graded-lex leading
variable.  `_int_eval` is the one evaluation kernel; `ratfun` runs it
for its evaluation and, modulo a prime, for its residue test.
`line_series`, the first-order Taylor series along a line in the
direction of one difference x_a - x_b, walks the terms the same way on a
`Line`, the line's integer kernel, and returns integers over one
denominator, no Fraction; `Line.product_series` gives the series to order
2 of a product of linear forms from the forms alone, with no expanded
product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd as _igcd, lcm as _ilcm
from operator import or_
from struct import Struct
from typing import Iterable, Mapping

from .sparse import SparseSum, add_term

Var = tuple[int, int]
Monomial = int
IntTerms = dict  # Monomial -> int

MAX_ORDER = 12

_POSITIONS = [(k, i) for k in range(1, MAX_ORDER + 1) for i in range(1, k + 1)]
_FIELD_BITS = 16
_FIELD = (1 << _FIELD_BITS) - 1
# position -> bit offset of its exponent field; the degree field sits lowest
_SHIFT = {v: _FIELD_BITS * (idx + 1) for idx, v in enumerate(_POSITIONS)}
_VAR_AT = {s: v for v, s in _SHIFT.items()}
_DEG_ONE = 1
_EXP_MASK = ~_FIELD
_DEG_LIMIT = 1 << (_FIELD_BITS - 1)
# _UNPACK[k] reads the lowest k fields, lowest first
_UNPACK = [Struct(f"<{k}H") for k in range(len(_POSITIONS) + 2)]


def check_var(v: Var, n: int | None = None) -> Var:
    k, i = v
    if not (1 <= i <= k):
        raise ValueError(f"invalid tableau position {v!r}")
    if n is not None and k > n:
        raise ValueError(f"position {v!r} out of range for order {n}")
    return v


# position -> the monomial x_v: one exponent and one degree
_VAR_MONO = {v: (1 << s) | _DEG_ONE for v, s in _SHIFT.items()}


def _var_mono(v: Var) -> Monomial:
    m = _VAR_MONO.get(v)
    if m is None:
        check_var(v, MAX_ORDER)  # raises: every valid position is listed
    return m


def mono_pack(pairs: Iterable[tuple[Var, int]]) -> Monomial:
    """The packed monomial of ((row, col), exponent) pairs."""
    m = deg = 0
    for v, e in pairs:
        if e < 0:
            raise ValueError(f"negative exponent {e} of {v!r}")
        m += e * _var_mono(v)
        deg += e
    # checked apart from m: a degree past the field carries into (1,1)
    if deg >= _DEG_LIMIT:
        raise ValueError(f"monomial degree {deg} exceeds {_DEG_LIMIT - 1}")
    return m


def _fields(m: Monomial) -> list[tuple[int, int]]:
    """(bit offset, exponent) of the nonzero exponent fields of m, lowest
    field (earliest position) first."""
    out = []
    m &= _EXP_MASK
    while m:
        s = ((m & -m).bit_length() - 1) & ~(_FIELD_BITS - 1)
        e = (m >> s) & _FIELD
        out.append((s, e))
        m ^= e << s
    return out


def mono_pairs(m: Monomial) -> tuple[tuple[Var, int], ...]:
    """The ((row, col), exponent) pairs of m, positions ascending."""
    return tuple((_VAR_AT[s], e) for s, e in _fields(m))


def _top_degree(d: Iterable[Monomial]) -> int:
    """The largest total degree among the monomials of d; 0 when d is empty."""
    return max(map(_FIELD.__and__, d), default=0)


def mono_key(m: Monomial) -> tuple[int, ...]:
    """Sort key of the graded-lex order: the fields of m lowest first,
    (degree, e(1,1), e(2,1), ...), up to its highest nonzero field.  Two
    keys of equal degree are never a proper prefix one of the other (the
    degree is the sum of the rest), so tuple comparison is the comparison
    of the zero-padded exponent vectors."""
    k = -(-m.bit_length() // _FIELD_BITS)
    return _UNPACK[k].unpack(m.to_bytes(2 * k, "little"))


def _lead_field(m: Monomial) -> int:
    """Bit offset of the field of m's earliest variable."""
    m &= _EXP_MASK
    return ((m & -m).bit_length() - 1) & -_FIELD_BITS


def _int_point(coords: Mapping[Var, Fraction], *ds: Iterable[Monomial]) -> tuple[dict[int, int], int]:
    """The coordinates at the positions the ds use, over one common
    denominator q: ({field offset: q x_v}, q), as `_int_eval` takes them."""
    acc = 0
    for d in ds:
        acc = reduce(or_, d, acc)
    xs = {s: coords[_VAR_AT[s]] for s, _ in _fields(acc)}
    q = _ilcm(*(x.denominator for x in xs.values()))
    return {s: x.numerator * (q // x.denominator) for s, x in xs.items()}, q


class Line:
    """The line x_a = coords[a] + t/2, x_b = coords[b] - t/2, every other
    x_v = coords[v], as the integer kernel of `Polynomial.line_series`:
    q, the lcm of 2 and every coordinate's denominator; q x_v per field
    offset; the fields of a and b; and, per shared monic form, its series
    (v + w t) / (q form.den), filled on first use, from which
    `product_series` multiplies the series of a product of forms without
    expanding it."""

    __slots__ = ("q", "ints", "sa", "sb", "_forms")

    def __init__(self, coords: Mapping[Var, Fraction], a: Var, b: Var):
        q = self.q = _ilcm(2, *(x.denominator for x in coords.values()))
        self.ints = {_SHIFT[v]: x.numerator * (q // x.denominator) for v, x in coords.items()}
        self.sa, self.sb = _SHIFT[a], _SHIFT[b]
        self._forms: dict[Polynomial, tuple[list[int], int]] = {}

    def product_series(self, forms: Mapping[Polynomial, int]) -> tuple[list[int], int]:
        """The series to order 2 of prod(f**e for f, e in forms.items()),
        a product of linear forms, read from the forms: each form is
        (v + w t) / d on the line, d = q f.den, and the product is the
        truncated product of those pairs over the product of the ds.  An
        empty product is 1."""
        c0, c1, c2 = 1, 0, 0
        den = 1
        for f, e in forms.items():
            vw = self._forms.get(f)
            if vw is None:
                vw = self._forms[f] = f.line_series(self)
            (v, w), d = vw
            den *= d**e
            for _ in range(e):
                c0, c1, c2 = c0 * v, c1 * v + c0 * w, c2 * v + c1 * w
        return [c0, c1, c2], den


class Polynomial(SparseSum):
    """Immutable sparse polynomial terms/den: `terms` maps packed monomials
    to nonzero ints, and `den` is a positive int prime to their content."""

    __slots__ = ("den",)

    # support() and sorted_items() list monomials in descending graded-lex
    # order, the canonical print order
    _sort_key = staticmethod(mono_key)
    _sort_reverse = True

    def __init__(self, terms: Mapping[tuple[tuple[Var, int], ...], Fraction] | None = None):
        acc: dict[Monomial, Fraction] = {}
        for m, c in (terms or {}).items():
            add_term(acc, mono_pack(m), Fraction(c))
        # over the lcm of the reduced denominators the content is prime to den
        den = _ilcm(*(c.denominator for c in acc.values()))
        self.terms = {m: c.numerator * (den // c.denominator) for m, c in acc.items()}
        self.den = den
        self._hash = None

    @classmethod
    def _raw(cls, terms: dict, den: int = 1) -> "Polynomial":
        # internal: (terms, den) is already canonical
        p = cls.__new__(cls)
        p.terms = terms
        p.den = den
        p._hash = None
        return p

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls.term((), c)

    @classmethod
    def variable(cls, k: int, i: int) -> "Polynomial":
        return cls._raw({_var_mono((k, i)): 1})

    @classmethod
    def term(cls, mono: tuple[tuple[Var, int], ...], coeff) -> "Polynomial":
        c = Fraction(coeff)
        m = mono_pack(mono)
        return cls._raw({m: c.numerator}, c.denominator) if c else cls._raw({})

    def __eq__(self, other) -> bool:
        return type(other) is Polynomial and self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((frozenset(self.terms.items()), self.den))
        return h

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get(0, 0), self.den)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw({m: -c for m, c in self.terms.items()}, self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _merge(self, other, 1) if type(other) is Polynomial else NotImplemented

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _merge(self, other, -1) if type(other) is Polynomial else NotImplemented

    def scale(self, c) -> "Polynomial":
        if type(c) is not int:
            c = Fraction(c)
        if not c:
            return Polynomial.zero()
        a, b = c.numerator, c.denominator
        if a == b:
            return self
        return _normal({m: v * a for m, v in self.terms.items()}, self.den * b)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero()
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        return _normal(_int_mul(small, big), self.den * other.den)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result, base = Polynomial.one(), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def leading_coeff(self) -> Fraction:
        return Fraction(self.terms[self.leading_monomial()], self.den)

    def evaluate(self, coords: Mapping[Var, Fraction]) -> Fraction:
        d = self.terms
        xs, q = _int_point(coords, d)
        return Fraction(_int_eval(d, xs, q), self.den * q ** _top_degree(d))

    def line_series(self, line: Line) -> tuple[list[int], int]:
        """The first-order Taylor series of p along `line` as integers over
        one denominator: ([c0, c1], den) with p = (c0 + c1 t) / den + O(t^2),
        den = self.den q^top, q the line's common denominator and top p's
        total degree.  One walk over the integer terms: with h = q/2, a term
        c r x_a^ea x_b^eb, r free of x_a and x_b, adds c r (q x_a)^ea
        (q x_b)^eb to c0 and c r h (ea (q x_a)^(ea-1) (q x_b)^eb - eb
        (q x_a)^ea (q x_b)^(eb-1)) to c1.  No Fraction is built."""
        d = self.terms
        if not d:
            return [0, 0], 1
        sa, sb, ints, q = line.sa, line.sb, line.ints, line.q
        xa, xb = ints[sa], ints[sb]
        top = _top_degree(d)
        qpow = [q**j for j in range(top + 1)]
        c0 = c1 = 0
        for m, c in d.items():
            c *= qpow[top - (m & _FIELD)]
            ea, eb = (m >> sa) & _FIELD, (m >> sb) & _FIELD
            m &= _EXP_MASK
            m ^= (ea << sa) | (eb << sb)
            while m:
                s = (m.bit_length() - 1) & -_FIELD_BITS
                e = m >> s
                m ^= e << s
                c *= ints[s] if e == 1 else ints[s] ** e
            pa, pb = xa**ea, xb**eb
            c0 += c * pa * pb
            if ea:
                c1 += c * ea * xa ** (ea - 1) * pb
            if eb:
                c1 -= c * eb * pa * xb ** (eb - 1)
        return [c0, c1 * (q // 2)], self.den * qpow[top]

    def derivative(self, var: Var) -> "Polynomial":
        s = _SHIFT[var]
        unit = (1 << s) | _DEG_ONE
        out: IntTerms = {}
        for m, c in self.terms.items():
            e = (m >> s) & _FIELD
            if e:
                # dividing by var is injective, so no two terms meet
                out[m - unit] = c * e
        return _normal(out, self.den)

    def subs_offsets(self, offsets: Mapping[Var, Fraction]) -> "Polynomial":
        """Substitute X_v -> X_v - offsets[v] for every listed variable, one
        variable at a time, with the rows of `_shift_rows`.  Integer
        offsets keep den and the content: the result is canonical as it is.
        Offsets on variables p lacks, found by one OR over its monomials, are
        skipped, and p itself is returned when no listed variable occurs."""
        occurs = reduce(or_, self.terms, 0)
        # substitutions in different variables commute, so any order serves
        live = [(s, c) for s, c in ((_SHIFT[v], c) for v, c in offsets.items())
                if c and (occurs >> s) & _FIELD]
        if not live:
            return self
        out, den = self.terms, self.den
        for s, c in live:
            # a substitution in another variable keeps X_v's top exponent
            top = max((m >> s) & _FIELD for m in out)
            den *= c.denominator**top
            rows = _shift_rows(s, -c.numerator, c.denominator, top)
            nxt: IntTerms = {}
            for m, coeff in out.items():
                for dm, c2 in rows[(m >> s) & _FIELD]:
                    add_term(nxt, m + dm, coeff * c2)
            out = nxt
        return Polynomial._raw(out, den) if den == self.den else _normal(out, den)

    def swap_vars(self, a: Var, b: Var) -> "Polynomial":
        if a == b:
            return self
        sa, sb = _SHIFT[a], _SHIFT[b]
        out: IntTerms = {}
        for m, c in self.terms.items():
            # move the exponent difference from one field to the other
            d = ((m >> sb) & _FIELD) - ((m >> sa) & _FIELD)
            out[m + (d << sa) - (d << sb)] = c
        return Polynomial._raw(out, self.den)

    def __repr__(self) -> str:
        from .textform import poly_text

        return poly_text(self)


def _normal(terms: IntTerms, den: int) -> Polynomial:
    """The polynomial terms/den for den > 0, with gcd(den, content) divided
    out of both; nothing to divide when den is 1."""
    if not terms:
        return Polynomial._raw({})
    g = _int_content(terms, den) if den != 1 else 1
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return Polynomial._raw(terms, den // g)


@lru_cache(maxsize=None)
def _shift_rows(s: int, a: int, b: int, top: int) -> list[list[tuple[int, int]]]:
    """Row e <= top: b^top (X + a/b)^e, X at field s, as (monomial change, coefficient)."""
    unit = (1 << s) | _DEG_ONE
    return [[((j - e) * unit, comb(e, j) * a ** (e - j) * b ** (top - e + j)) for j in range(e + 1)]
            for e in range(top + 1)]


def _merge(a: Polynomial, b: Polynomial, sign: int) -> Polynomial:
    """a + sign*b in one pass over the lcm of the two denominators."""
    if not b.terms:
        return a
    if not a.terms:
        return b if sign == 1 else -b
    g = _igcd(a.den, b.den)
    ka, kb = b.den // g, a.den // g
    return _normal(_int_combine(a.terms, ka, b.terms, kb * sign), a.den * ka)


def _int_combine(a: IntTerms, ka: int, b: IntTerms, kb: int) -> IntTerms:
    """ka*a + kb*b in one pass, without a scaled copy of b."""
    out = dict(a) if ka == 1 else {m: c * ka for m, c in a.items()}
    for m, c in b.items():
        s = out.get(m, 0) + c * kb
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


# ---------------------------------------------------------------------------
# Exact division and evaluation, both on integer term maps.
# ---------------------------------------------------------------------------


def divexact(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g for a constant or linear g when the division is exact,
    else None; ValueError for a g of degree 2 or more.  A constant divides
    by scaling.  A linear g is c*P/den with P = lc*u + R primitive, u its
    graded-lex leading variable and lc > 0; f is exactly divisible by g
    over Q only if f.terms is by P over Z (Gauss's lemma).  So synthetic
    division runs on integers: with f.terms = sum rem[e] u^e, from the top
    down Q_k = rem[k+1] / lc, exact over Z, and rem[k] loses R*Q_k; the
    division is exact when nothing is left in rem[0].  R is linear, so no
    exponent outgrows its field.  c and den are restored on the quotient."""
    d = g.terms
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    deg = _top_degree(d)
    if deg > 1:
        raise ValueError("a divisor must be constant or linear")
    if not deg:
        return f.scale(Fraction(g.den, d[0]))
    u = g.leading_monomial()  # x_u itself, one exponent and one degree
    s = _lead_field(u)
    c = _int_content(d)
    if d[u] < 0:
        c = -c
    lc = d[u] // c
    neg_rest = {m: -v // c for m, v in d.items() if m != u}
    rem: dict[int, IntTerms] = {}
    for m, v in f.terms.items():
        e = (m >> s) & _FIELD
        rem.setdefault(e, {})[m - e * u] = v
    out: IntTerms = {}
    for k in range(max(rem, default=0) - 1, -1, -1):
        q = rem.pop(k + 1, None)
        if not q:
            continue
        if lc != 1:
            if any(v % lc for v in q.values()):
                return None
            q = {m: v // lc for m, v in q.items()}
        acc = rem.setdefault(k, {})
        ku = k * u
        for m1, c1 in q.items():
            out[m1 + ku] = c1
            for m2, c2 in neg_rest.items():
                add_term(acc, m1 + m2, c1 * c2)
    if rem.get(0):
        return None
    k = g.den if c > 0 else -g.den
    if k != 1:
        out = {m: v * k for m, v in out.items()}
    return _normal(out, f.den * abs(c))


def _int_eval(d: IntTerms, xs: Mapping[int, int], q: int = 1) -> int:
    """The one evaluation kernel: the sum over the terms c*m of d of
    c * q^(D - deg m) * prod xs[s]^e, with D the top degree of d and xs
    mapping each field's bit offset to an integer coordinate.  With
    coordinates a_v / q this is q^D times the value of d, an exact
    integer."""
    top = _top_degree(d) if q != 1 else 0
    qpow = [q**j for j in range(top + 1)] if top else None
    total = 0
    for m, c in d.items():
        if top:
            c *= qpow[top - (m & _FIELD)]
        m &= _EXP_MASK
        # walk the nonzero fields from the top: the highest set bit names
        # the field, and shifting down to it leaves just the exponent
        while m:
            s = (m.bit_length() - 1) & -_FIELD_BITS
            e = m >> s
            m ^= e << s
            c *= xs[s] if e == 1 else xs[s] ** e
        total += c
    return total


def _int_content(d: IntTerms, g: int = 0) -> int:
    """gcd of g and the coefficients of d; the scan stops at the first 1."""
    for c in d.values():
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _int_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    """Product of integer term maps, the kernel of Polynomial.__mul__."""
    if _top_degree(a) + _top_degree(b) >= _DEG_LIMIT:
        raise ValueError(f"product degree exceeds {_DEG_LIMIT - 1}")
    out: IntTerms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out
