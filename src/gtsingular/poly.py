"""Sparse multivariate polynomials over the rationals, stored as integer
numerators over one common denominator.

Variables are tableau positions (row, col) with 1 <= col <= row <= MAX_ORDER.
A monomial is one packed integer of 16-bit fields (packed exponent vectors:
Monagan & Pearce, CASC 2007): the total degree in the lowest field, then one
exponent field per position, (1,1) just above the degree, then (2,1), (2,2),
(3,1) and so on.  A monomial over the positions of order n thus fits in
16 * (n(n+1)/2 + 1) bits, whatever MAX_ORDER is, and a product of monomials
is one addition.  Integer comparison is lex order with later positions
ranked higher, a monomial order, so division and its heap use it as is; the
canonical graded-lex order (total degree first, then earlier positions
ranked higher), which fixes print order, leading terms and signs, is the
order of `mono_key`.  Every degree stays below 2^15 (a larger product
raises ValueError), so the top bit of each field is a free guard bit: b
divides a exactly when b <= a and (a | G) - b keeps every guard bit of G
set, with G the guard bits of a's fields.

A polynomial is `terms` / `den`: `terms` maps monomials to nonzero ints and
`den` is a positive int prime to their content, zero is ({}, 1).  This
content/primitive form is canonical (Geddes, Czapor & Labahn, *Algorithms
for Computer Algebra*, 1992, ch. 2), so structural equality is equality.
Arithmetic, exact division, evaluation and gcd run on integers only, and
`_normal` divides out gcd(den, content) after each operation.  Fractions
appear only at the boundary: the `Polynomial(mapping)`, `term` and
`constant` constructors take them, `constant_value`, `leading_coeff`,
`evaluate` and `line_series` return them.  `_int_eval` is the one
evaluation kernel; the residue test of `ratfun` runs it at integer
coordinates modulo a prime.  `line_series`, the Taylor series along a line
in the direction of one difference x_a - x_b, walks the terms the same
way.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd as _igcd, lcm as _ilcm
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
_NFIELDS = len(_POSITIONS) + 1
# _GUARDS[k]: the guard bits of the lowest k fields
_GUARDS = [sum(_DEG_LIMIT << (_FIELD_BITS * j) for j in range(k)) for k in range(_NFIELDS + 1)]
# _UNPACK[k] reads the lowest k fields, lowest first
_UNPACK = [Struct(f"<{k}H") for k in range(_NFIELDS + 1)]


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


def mono_degree(m: Monomial) -> int:
    return m & _FIELD


def _top_degree(d: Iterable[Monomial]) -> int:
    """The largest total degree among the monomials of d, which is not empty."""
    return max(map(_FIELD.__and__, d))


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


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when some exponent would go negative.  b divides a
    only if b <= a, and then b has no field above a's highest.  Each field
    of a | G, with G the guard bits of a's fields, is at least 2^15 > b's
    exponent, so no borrow crosses a field and a field's guard bit survives
    exactly when a's exponent is at least b's."""
    if b > a:
        return None
    g = _GUARDS[-(-a.bit_length() // _FIELD_BITS)]
    t = (a | g) - b
    return t ^ g if t & g == g else None


def _vars_of(d: Iterable[Monomial]) -> list[Var]:
    """Positions whose exponent is nonzero in some monomial, ascending."""
    acc = 0
    for m in d:
        acc |= m
    # an OR of fields is nonzero exactly where some exponent is
    return [_VAR_AT[s] for s, _ in _fields(acc)]


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

    def variables(self) -> list[Var]:
        return _vars_of(self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def leading_coeff(self) -> Fraction:
        return Fraction(self.terms[self.leading_monomial()], self.den)

    def evaluate(self, coords: Mapping[Var, Fraction]) -> Fraction:
        d = self.terms
        if not d:
            return Fraction(0)
        xs = {_SHIFT[v]: coords[v] for v in _vars_of(d)}
        # the coordinates over one common denominator q
        q = _ilcm(*(x.denominator for x in xs.values()))
        top = _top_degree(d)
        total = _int_eval(d, {s: x.numerator * (q // x.denominator) for s, x in xs.items()}, q)
        return Fraction(total, self.den * q**top)

    def line_series(
        self, coords: Mapping[Var, Fraction], a: Var, b: Var, order: int
    ) -> list[Fraction]:
        """Taylor coefficients c_0..c_order of p along the line x_a =
        coords[a] + e/2, x_b = coords[b] - e/2, every other x_v = coords[v]:
        p = c_0 + c_1 e + ... + O(e^(order+1)).  One walk over the integer
        terms, over one common denominator q as in `evaluate`: the part of
        each term free of x_a and x_b is summed into the bucket of its pair
        of exponents (e_a, e_b), and each bucket then takes the truncated
        binomial expansions of (q x_a)^e_a (q x_b)^e_b.  No derivative
        polynomial is built."""
        d = self.terms
        if not d:
            return [Fraction(0)] * (order + 1)
        sa, sb = _SHIFT[a], _SHIFT[b]
        xs = {_SHIFT[v]: coords[v] for v in _vars_of(d)}
        q = _ilcm(2, *(x.denominator for x in xs.values()))
        ints = {s: x.numerator * (q // x.denominator) for s, x in xs.items()}
        top = _top_degree(d)
        qpow = [q**j for j in range(top + 1)]
        out = [0] * (order + 1)
        buckets: dict[tuple[int, int], int] = {}
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
            if ea or eb:
                key = (ea, eb)
                buckets[key] = buckets.get(key, 0) + c
            else:
                out[0] += c
        h = q // 2
        for (ea, eb), c in buckets.items():
            pa = _binomial_row(ints.get(sa, 0), h, ea, order)
            pb = _binomial_row(ints.get(sb, 0), -h, eb, order)
            for i, u in enumerate(pa):
                for j, w in enumerate(pb[: order + 1 - i]):
                    out[i + j] += c * u * w
        den = self.den * qpow[top]
        return [Fraction(x, den) for x in out]

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
        """Substitute X_v -> X_v + offsets[v] for every listed variable, one
        variable at a time.  With offset a/b and top exponent E of X_v,
        b^E (X_v + a/b)^e is the integer sum of C(e,j) a^(e-j) b^(E-e+j) X_v^j."""
        live = [(_SHIFT[v], c) for v, c in sorted(offsets.items()) if c]
        if not live or not self.terms:
            return self
        out, den = self.terms, self.den
        for s, c in live:
            top = max((m >> s) & _FIELD for m in out)
            if not top:
                continue
            a, b = c.numerator, c.denominator
            den *= b**top
            unit = (1 << s) | _DEG_ONE
            # exponent e -> the terms of b^(E-e) (b*X_v + a)^e as (monomial change, coefficient)
            rows = [[((j - e) * unit, comb(e, j) * a ** (e - j) * b ** (top - e + j))
                     for j in range(e + 1)] for e in range(top + 1)]
            nxt: IntTerms = {}
            for m, coeff in out.items():
                for dm, c2 in rows[(m >> s) & _FIELD]:
                    add_term(nxt, m + dm, coeff * c2)
            out = nxt
        return _normal(out, den)

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
    return Polynomial._raw(_int_scale_div(terms, g), den // g)


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
# Exact division, evaluation and gcd, all on integer term maps.  The gcd is
# a primitive polynomial remainder sequence, recursing on the coefficient
# polynomials for contents.
# ---------------------------------------------------------------------------


def _int_divexact(f: IntTerms, g: IntTerms) -> IntTerms | None:
    """Term map of f/g when the division is exact over Z, else None.  The
    remainder is a dict whose monomials also sit negated in a min-heap, so
    the leading term is a heap pop instead of a rescan (Johnson 1974;
    Monagan & Pearce 2011); cancelled monomials leave stale heap entries
    that are skipped when popped."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    # Any monomial order serves; native integer order is lex.  In an exact
    # division every quotient term has degree at most deg f - deg g, so a
    # larger one ends the loop before any exponent can grow past its field.
    g_lm = max(g)
    g_lc = g[g_lm]
    q_top = _top_degree(f) - _top_degree(g) if f else 0
    g_items = list(g.items())
    rem = dict(f)
    heap = [-m for m in rem]
    heapify(heap)
    # A monomial popped from the heap never re-enters the remainder (every
    # later product term is smaller), so one heap entry per monomial is
    # enough even when it cancels and reappears before its turn.
    queued = set(rem)
    out: IntTerms = {}
    while rem:
        lm = -heappop(heap)
        lc = rem.get(lm)
        if lc is None:
            continue
        q_mono = mono_div(lm, g_lm)
        if q_mono is None or q_mono & _FIELD > q_top:
            return None
        q_c, r = divmod(lc, g_lc)
        if r:
            return None
        out[q_mono] = q_c
        for m, c in g_items:
            mm = m + q_mono
            s = rem.get(mm, 0) - c * q_c
            if s:
                rem[mm] = s
                if mm not in queued:
                    queued.add(mm)
                    heappush(heap, -mm)
            else:
                rem.pop(mm, None)
    return out


def divexact(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when the division is exact, else None.  With g = c*P/den
    for P primitive, f is exactly divisible by g over Q only if f.terms is
    by P over Z (Gauss's lemma), so the loop runs on integers."""
    c = _int_content(g.terms)
    q = _int_divexact(f.terms, _int_scale_div(g.terms, c))
    if q is None:
        return None
    if g.den != 1:
        q = {m: v * g.den for m, v in q.items()}
    return _normal(q, f.den * c)


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


def _binomial_row(x: int, h: int, e: int, order: int) -> list[int]:
    """The coefficients of (x + h t)^e up to t^order."""
    return [comb(e, j) * x ** (e - j) * h**j for j in range(min(e, order) + 1)]


def _int_content(d: IntTerms, g: int = 0) -> int:
    """gcd of g and the coefficients of d; the scan stops at the first 1."""
    for c in d.values():
        g = _igcd(g, c)
        if g == 1:
            return 1
    return g


def _int_scale_div(d: IntTerms, k: int) -> IntTerms:
    if k == 1:
        return d
    return {m: c // k for m, c in d.items()}


def _int_mul(a: IntTerms, b: IntTerms) -> IntTerms:
    """Product of integer term maps; also the kernel of Polynomial.__mul__."""
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


def _coeff_map(d: IntTerms, var: Var) -> dict[int, IntTerms]:
    """View as univariate in var: degree -> coefficient term map."""
    s = _SHIFT[var]
    unit = (1 << s) | _DEG_ONE
    out: dict[int, IntTerms] = {}
    for m, c in d.items():
        e = (m >> s) & _FIELD
        out.setdefault(e, {})[m - e * unit] = c
    return out


def _int_deg(d: IntTerms, var: Var) -> int:
    s = _SHIFT[var]
    return max(((m >> s) & _FIELD for m in d), default=0)


def _prem(f: IntTerms, g: IntTerms, var: Var) -> IntTerms:
    """Pseudo-remainder of f by g with respect to var."""
    dg = _int_deg(g, var)
    lcg = _coeff_map(g, var)[dg]
    df = _int_deg(f, var)
    while f and df >= dg:
        pw = (df - dg) * _var_mono(var)
        shifted = {m + pw: c for m, c in _int_mul(_coeff_map(f, var)[df], g).items()}
        f = _int_combine(_int_mul(lcg, f), 1, shifted, -1)
        df = _int_deg(f, var)
    return f


def _content_in_var(d: IntTerms, var: Var) -> IntTerms:
    cont: IntTerms = {}
    for coeff in _coeff_map(d, var).values():
        cont = _int_gcd(cont, coeff)
    return cont


def _positive_primitive(d: IntTerms) -> IntTerms:
    c = _int_content(d)
    if d[max(d, key=mono_key)] < 0:
        c = -c
    return _int_scale_div(d, c)


def _int_gcd(f: IntTerms, g: IntTerms) -> IntTerms:
    """gcd of integer term maps with positive lead, by a primitive
    polynomial remainder sequence (Brown 1971) in the first variable both
    share; contents in that variable recurse through _int_gcd."""
    if not f or not g:
        return _positive_primitive(f or g)
    ci = _igcd(_int_content(f), _int_content(g))
    f = _positive_primitive(f)
    g = _positive_primitive(g)
    common = set(_vars_of(f)) & set(_vars_of(g))
    if not common:
        return {0: ci}
    var = min(common)
    cont_f = _content_in_var(f, var)
    cont_g = _content_in_var(g, var)
    cont = _int_gcd(cont_f, cont_g)
    F = _int_divexact_strict(f, cont_f)
    G = _int_divexact_strict(g, cont_g)
    if _int_deg(F, var) < _int_deg(G, var):
        F, G = G, F
    r = _prem(F, G, var)
    while r and _int_deg(r, var):
        F, G = G, _positive_primitive(_int_divexact_strict(r, _content_in_var(r, var)))
        r = _prem(F, G, var)
    # a remainder free of var leaves no common factor of positive degree
    out = _int_mul({0: 1} if r else _positive_primitive(G), cont)
    return {m: c * ci for m, c in out.items()}


def _int_divexact_strict(f: IntTerms, g: IntTerms) -> IntTerms:
    q = _int_divexact(f, g)
    if q is None:
        raise ArithmeticError("internal gcd error: expected exact division")
    return q


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Greatest common divisor, returned primitive over Z with positive lead."""
    if f.is_zero() and g.is_zero():
        return Polynomial.zero()
    return Polynomial._raw(_int_gcd(f.terms, g.terms))
