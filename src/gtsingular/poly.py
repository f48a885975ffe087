"""Sparse multivariate polynomials over exact rationals.

Variables are tableau positions (row, col) with 1 <= col <= row; a monomial
is a sorted tuple of ((row, col), exponent) pairs with positive exponents.
The monomial order is graded lexicographic, with variables ordered by
(row, col) and earlier positions ranked higher.  Canonical form (no zero
coefficients, sorted monomial tuples) makes structural equality coincide
with mathematical equality.

Multiplication clears denominators once, accumulates integer products and
builds one Fraction per output term.  There is one exact-division routine,
for Fraction and integer coefficients alike: it takes the remainder's
leading term from a heap instead of rescanning the remainder.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd as _igcd
from operator import truediv
from typing import Mapping

from .sparse import SparseSum, add_term

Var = tuple[int, int]
Monomial = tuple[tuple[Var, int], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def check_var(v: Var, n: int | None = None) -> Var:
    k, i = v
    if not (1 <= i <= k):
        raise ValueError(f"invalid tableau position {v!r}")
    if n is not None and k > n:
        raise ValueError(f"position {v!r} out of range for order {n}")
    return v


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when some exponent would go negative."""
    out = dict(a)
    for v, e in b:
        r = out.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(v, None)
        else:
            out[v] = r
    return tuple(sorted(out.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_key(m: Monomial):
    """Sort key realizing the graded-lex order (larger key = larger monomial)."""
    return (mono_degree(m), tuple(((-v[0], -v[1]), e) for v, e in m))


def _heap_key(m: Monomial):
    """The exact reverse of mono_key: the larger monomial has the smaller key.
    At equal degree no monomial's pairs are a prefix of another's, so
    negating the exponents reverses the tie-break on the first difference."""
    return (-mono_degree(m), tuple((v, -e) for v, e in m))


class Polynomial(SparseSum):
    """Immutable sparse polynomial; term map monomial -> nonzero Fraction."""

    __slots__ = ()

    # support() and sorted_items() list monomials in descending graded-lex
    # order, the canonical print order
    _sort_key = staticmethod(_heap_key)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        super().__init__(
            (tuple(sorted((v, e) for v, e in m if e)), Fraction(c))
            for m, c in (terms or {}).items()
        )

    @classmethod
    def one(cls) -> "Polynomial":
        return cls._raw({(): _ONE})

    @classmethod
    def constant(cls, c) -> "Polynomial":
        c = Fraction(c)
        return cls._raw({(): c} if c else {})

    @classmethod
    def variable(cls, k: int, i: int) -> "Polynomial":
        check_var((k, i))
        return cls._raw({(((k, i), 1),): _ONE})

    @classmethod
    def term(cls, mono: Monomial, coeff) -> "Polynomial":
        return cls({mono: Fraction(coeff)})

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), _ZERO)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero()
        big, big_den = _to_int_terms(self)
        small, small_den = _to_int_terms(other)
        if len(big) < len(small):
            big, small = small, big
        den = big_den * small_den
        # one Fraction per output term; the integer sums are exact
        return Polynomial._raw({m: Fraction(c, den) for m, c in _int_mul(small, big).items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def variables(self) -> list[Var]:
        vs: set[Var] = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return sorted(vs)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=mono_key)

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def evaluate(self, coords: Mapping[Var, Fraction]) -> Fraction:
        total = _ZERO
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(coords[v]) ** e
            total += val
        return total

    def derivative(self, var: Var) -> "Polynomial":
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            for idx, (v, e) in enumerate(m):
                if v == var:
                    # dividing by var is injective, so no two terms meet
                    rest = m[:idx] + ((v, e - 1),) + m[idx + 1:] if e > 1 else m[:idx] + m[idx + 1:]
                    out[rest] = c * e
                    break
        return Polynomial._raw(out)

    def subs_offsets(self, offsets: Mapping[Var, Fraction]) -> "Polynomial":
        """Substitute X_v -> X_v + offsets[v] for every listed variable."""
        live = {v: Fraction(c) for v, c in offsets.items() if c}
        if not live:
            return self
        binomials: dict[tuple[Var, int], dict[Monomial, Fraction]] = {}
        out: dict[Monomial, Fraction] = {}
        for m, coeff in self.terms.items():
            static: list[tuple[Var, int]] = []
            factors: list[dict[Monomial, Fraction]] = []
            for v, e in m:
                c = live.get(v)
                if c is None:
                    static.append((v, e))
                    continue
                f = binomials.get((v, e))
                if f is None:
                    f = {
                        (((v, j),) if j else ()): Fraction(comb(e, j)) * c ** (e - j)
                        for j in range(e + 1)
                    }
                    binomials[(v, e)] = f
                factors.append(f)
            expanded: dict[Monomial, Fraction] = {tuple(static): coeff}
            for f in factors:
                nxt: dict[Monomial, Fraction] = {}
                for m1, c1 in expanded.items():
                    for m2, c2 in f.items():
                        add_term(nxt, mono_mul(m1, m2), c1 * c2)
                expanded = nxt
            for mm, cc in expanded.items():
                add_term(out, mm, cc)
        return Polynomial._raw(out)

    def swap_vars(self, a: Var, b: Var) -> "Polynomial":
        if a == b:
            return self
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            mm = tuple(sorted((b if v == a else a if v == b else v, e) for v, e in m))
            out[mm] = c
        return Polynomial._raw(out)

    def __repr__(self) -> str:
        from .textform import poly_text

        return poly_text(self)


# ---------------------------------------------------------------------------
# Exact division and gcd.  One division loop serves both coefficient kinds:
# the remainder is a dict whose monomials also sit in a min-heap under
# _heap_key, so the leading term is a heap pop instead of a rescan (Johnson
# 1974; Monagan & Pearce 2011).  Cancelled monomials leave stale heap
# entries that are skipped when popped.  Multiplication clears denominators
# and accumulates integer products.  The gcd core works on integer-
# coefficient term maps; it is a primitive polynomial remainder sequence,
# recursing on the coefficient polynomials for contents.
# ---------------------------------------------------------------------------


IntTerms = dict  # Monomial -> int


def _divexact_terms(f: dict, g: dict, coeff_div) -> dict | None:
    """Term map of f/g when the division is exact, else None.

    coeff_div(c, lc) divides a leading remainder coefficient by the leading
    coefficient of g, returning None when that leaves a remainder."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    g_lm = max(g, key=mono_key)
    g_lc = g[g_lm]
    g_items = list(g.items())
    rem = dict(f)
    heap = [(_heap_key(m), m) for m in rem]
    heapify(heap)
    # A monomial popped from the heap never re-enters the remainder (every
    # later product term is smaller), so one heap entry per monomial is
    # enough even when it cancels and reappears before its turn.
    queued = set(rem)
    out: dict = {}
    while rem:
        lm = heappop(heap)[1]
        lc = rem.get(lm)
        if lc is None:
            continue
        q_mono = mono_div(lm, g_lm)
        if q_mono is None:
            return None
        q_c = coeff_div(lc, g_lc)
        if q_c is None:
            return None
        out[q_mono] = q_c
        for m, c in g_items:
            mm = mono_mul(m, q_mono)
            s = rem.get(mm, 0) - c * q_c
            if s:
                rem[mm] = s
                if mm not in queued:
                    queued.add(mm)
                    heappush(heap, (_heap_key(mm), mm))
            else:
                rem.pop(mm, None)
    return out


def divexact(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when the division is exact, else None."""
    q = _divexact_terms(f.terms, g.terms, truediv)
    return None if q is None else Polynomial._raw(q)


def _int_quo(a: int, b: int) -> int | None:
    q, r = divmod(a, b)
    return None if r else q


def _int_divexact(f: IntTerms, g: IntTerms) -> IntTerms | None:
    return _divexact_terms(f, g, _int_quo)


def _to_int_terms(p: Polynomial) -> tuple[IntTerms, int]:
    """(d, den) with p = d / den; den is the lcm of the denominators."""
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // _igcd(den, c.denominator)
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


def _int_content(d: IntTerms) -> int:
    g = 0
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
    out: IntTerms = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _int_sub(a: IntTerms, b: IntTerms) -> IntTerms:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _mono_strip(m: Monomial, var: Var) -> tuple[int, Monomial]:
    for idx, (v, e) in enumerate(m):
        if v == var:
            return e, m[:idx] + m[idx + 1:]
    return 0, m


def _coeff_map(d: IntTerms, var: Var) -> dict[int, IntTerms]:
    """View as univariate in var: degree -> coefficient term map."""
    out: dict[int, IntTerms] = {}
    for m, c in d.items():
        e, rest = _mono_strip(m, var)
        out.setdefault(e, {})[rest] = c
    return out


def _attach_power(d: IntTerms, var: Var, e: int) -> IntTerms:
    if e == 0:
        return d
    pw: Monomial = ((var, e),)
    return {mono_mul(m, pw): c for m, c in d.items()}


def _common_vars(f: IntTerms, g: IntTerms) -> list[Var]:
    vf = {v for m in f for v, _ in m}
    vg = {v for m in g for v, _ in m}
    return sorted(vf & vg)


def _mono_content(d: IntTerms) -> Monomial:
    """Largest monomial dividing every term."""
    it = iter(d)
    common = dict(next(it))
    for m in it:
        if not common:
            break
        md = dict(m)
        for v in list(common):
            e = md.get(v, 0)
            if e == 0:
                del common[v]
            elif e < common[v]:
                common[v] = e
    return tuple(sorted(common.items()))


def _int_deg(d: IntTerms, var: Var) -> int:
    deg = 0
    for m in d:
        for v, e in m:
            if v == var and e > deg:
                deg = e
    return deg


def _prem(f: IntTerms, g: IntTerms, var: Var) -> IntTerms:
    """Pseudo-remainder of f by g with respect to var."""
    dg = _int_deg(g, var)
    cg = _coeff_map(g, var)
    lcg = cg[dg]
    f = dict(f)
    df = _int_deg(f, var)
    while f and df >= dg:
        cf = _coeff_map(f, var)
        lcf = cf[df]
        shifted = _attach_power(_int_mul(lcf, g), var, df - dg)
        f = _int_sub(_int_mul(lcg, f), shifted)
        df = _int_deg(f, var)
    return f


def _content_in_var(d: IntTerms, var: Var) -> IntTerms:
    cm = _coeff_map(d, var)
    cont: IntTerms = {}
    for coeff in cm.values():
        cont = _int_gcd(cont, coeff)
        if len(cont) == 1 and () in cont and abs(cont[()]) == 1:
            break
    return cont


def _positive_primitive(d: IntTerms) -> IntTerms:
    c = _int_content(d)
    if d[max(d, key=mono_key)] < 0:
        c = -c
    return _int_scale_div(d, c)


def _int_gcd(f: IntTerms, g: IntTerms) -> IntTerms:
    """gcd of integer term maps with positive lead, by a primitive
    polynomial remainder sequence (Brown 1971) in the shared variable of
    least degree; contents in that variable recurse through _int_gcd."""
    if not f:
        return _positive_primitive(dict(g))
    if not g:
        return _positive_primitive(dict(f))
    ci = _igcd(_int_content(f), _int_content(g))
    f = _positive_primitive(f)
    g = _positive_primitive(g)
    if f == g:
        return {m: c * ci for m, c in f.items()}
    mf, mg = dict(_mono_content(f)), dict(_mono_content(g))
    mono: Monomial = tuple(sorted((v, min(e, mg[v])) for v, e in mf.items() if v in mg))
    if mono:
        f = {mono_div(m, mono): c for m, c in f.items()}
        g = {mono_div(m, mono): c for m, c in g.items()}
    common = _common_vars(f, g)
    if not common or len(f) == 1 or len(g) == 1:
        return {mono: ci}
    var = min(common, key=lambda v: min(_int_deg(f, v), _int_deg(g, v)))
    cont_f = _content_in_var(f, var)
    cont_g = _content_in_var(g, var)
    cont = _int_gcd(cont_f, cont_g)
    F = _int_divexact_strict(f, cont_f)
    G = _int_divexact_strict(g, cont_g)
    if _int_deg(F, var) < _int_deg(G, var):
        F, G = G, F
    while True:
        r = _prem(F, G, var)
        if not r:
            pp = _positive_primitive(G)
            break
        if _int_deg(r, var) == 0:
            pp = {(): 1}
            break
        F, G = G, _positive_primitive(_int_divexact_strict(r, _content_in_var(r, var)))
    out = _int_mul(pp, cont)
    if mono:
        out = {mono_mul(m, mono): c for m, c in out.items()}
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
    d = _int_gcd(_to_int_terms(f)[0], _to_int_terms(g)[0])
    return Polynomial._raw({m: Fraction(c) for m, c in d.items()})
