"""Rational functions in tableau variables, kept in reduced canonical form.

Every denominator is a product of linear forms x[k][i] - x[k][j] + m, the
only denominators the Gelfand-Tsetlin formulas produce.  It is kept as
`forms`: a dict from monic linear form to multiplicity, in no order (dict
equality is canonical).  Its expanded product, the monic `den` that is
printed, is built on each use and not kept.  Canonical form: no listed
form divides `num`, and num = 0 is stored as 0 with no forms.  Structural
equality then coincides with equality of rational functions.

Linear forms are irreducible, so each form is tested on its own: `num` is
evaluated modulo a prime on the form's zero set at a fixed integer point,
and a nonzero residue proves the form does not divide.  The one integer
evaluation kernel of `poly` computes the residue from the integer terms
and denominators of `num` and the form (no Fraction is built), after
solving the form for its leading variable.  Only a zero residue (or a
denominator the prime divides) runs the exact `divexact`, so no
probabilistic answer reaches a canonical form.

A residue is an evaluation, a ring homomorphism into the integers modulo
the prime, so a result's residues follow from its operands' and a test
costs the new term, not the accumulated numerator.  Each function
memoizes the residue of its numerator at each form's test point
(the memo is not part of == or hash).  A sum takes r(n1) r(a) + r(n2) r(b)
over the cofactors a and b, empty for equal forms; a cofactor's residue is
the product of its forms' residues at the test point (a cofactor holding
the form vanishes there, so only the side holding it at the top
multiplicity contributes).  A product multiplies its factors' residues,
and derives its memo only when a later operation first needs it.
Negation and scaling keep no residues.
Dividing out a form f divides every other entry by f's residue at that
entry's point, and drops the entry when that residue is 0.  A missing
entry is evaluated on the operand that lacks it, one factor or one term.
An entry is derived only when every residue it comes from is defined, so
each equals the residue of the numerator itself: the memo changes what a
test costs, never what it decides.  Each form's test point is solved once
and cached.

A `gtformulas.phi_general` image coefficient stores its numerator as its
linear factors, `_num_forms` = (unit, {monic form: e}) with num == unit *
prod(form**e), and no expanded `num`: the `num` property expands the
factors on first use and keeps the result in the slot `_num`.  Scaling and
negation keep the factors, with the unit times the scalar, beside any
expanded numerator.  `subs_offsets` and `swap_vars` move the numerator as
it is kept: an expanded one when there is one, at the cost it always had,
else the factors, each form through `_shifted_form` or `_swapped_form`
and the transposition's units folded into the unit.  Every other result
is expanded and has no factors.  Sums, general products and printing
expand a factored operand once; `evaluate` multiplies its forms'
values.  Inside this module the stored `_num` is read directly and the
property is called only where it is None, so a value that was never
factored pays nothing for the factored form.

Equality has two paths.  When both sides are factored, == compares the
units and the factor dicts, with no expansion: a monic linear form is
irreducible and distinct monic forms are not associates, so by unique
factorization (unit, {form: e}) is canonical for a product of forms.
Otherwise == compares the expanded numerators.  `is_zero` never expands:
a factored numerator is nonzero.  The hash is that of the denominator's
forms alone, which equal functions share whatever form their numerators
are stored in; it needs no expansion, and nothing keys a dict or a cache
on a rational function, so a coarse hash costs nothing.

Forms are shared and their transforms computed once.  `_monic_form` caches
the monic scaling of each linear polynomial, so equal forms are one object
and a dict lookup on a form meets its cached hash and an identity test.  A
shift moves only a form's constant, l(x - a) = l(x) - sum c_v a_v, so
`_shifted_form` caches the shifted form on (form, that amount), not on the
whole offsets; a transposition is cached on (form, a, b) with the unit it
leaves, an int for the Gelfand-Tsetlin forms, whose -1 negates the
numerator.  (`skewring` likewise decides once per form and point whether
the form vanishes there.)  `evaluate` runs `_int_eval` on num, or on each
of its factors, and on each form over one common denominator and builds
one Fraction.

The constructor RationalFunction(num, den) normalises a pair not already
known to be reduced.  It takes a constant or linear den and raises
ValueError on any other: no denominator is factored, so a value such as
1/z^2 is built from linear forms, as z**-2.  The reciprocal of a numerator
of degree 2 or more, through `/` or a negative power, raises the same
error.  Every other operation builds its result directly on the forms, and
a product with a constant factor only scales the other numerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .poly import (
    _SHIFT,
    _VAR_AT,
    Polynomial,
    Var,
    _int_eval,
    _int_point,
    _lead_field,
    _top_degree,
    divexact,
)

_ONE = Fraction(1)

# The residue test works modulo this prime, at a fixed integer point.
_P = (1 << 61) - 1


# The fixed point of the residue test: position (k, i) -> 3^(1000k + i) mod
# _P, and the same point keyed like the evaluation kernel's coordinates.
_COORDS = {(k, i): pow(3, 1000 * k + i, _P) for k, i in _SHIFT}
_FIELD_COORDS = {_SHIFT[v]: x for v, x in _COORDS.items()}


class PoleError(ArithmeticError):
    """Evaluation hit a zero of the denominator."""


_NOT_LINEAR = "a denominator must be constant or linear; build others from linear forms"


def _is_linear(p: Polynomial) -> bool:
    """Degree exactly 1."""
    return not p.is_constant() and _top_degree(p.terms) == 1


def _expand(forms) -> Polynomial:
    out = Polynomial.one()
    for form, e in forms:
        out = out * (form if e == 1 else form**e)
    return out


@lru_cache(maxsize=None)
def _test_point(form: Polynomial) -> dict | None:
    """The point of form = 0 whose other coordinates are _COORDS, keyed like
    the evaluation kernel's coordinates; None when _P divides form.den.
    Callers only read the dict."""
    if form.den % _P == 0:
        return None
    # the form is monic in its graded-lex leading variable u:
    # u = -(form at u = 0)
    u = _lead_field(form.leading_monomial())
    xs = dict(_FIELD_COORDS)
    xs[u] = 0
    xs[u] = -_int_eval(form.terms, xs) * pow(form.den, -1, _P) % _P
    return xs


def _residue(p: Polynomial, form: Polynomial) -> int | None:
    """p mod _P at the test point of form; None when _P divides a
    coefficient denominator."""
    xs = _test_point(form)
    if xs is None or p.den % _P == 0:
        return None
    return _int_eval(p.terms, xs) * pow(p.den, -1, _P) % _P


def _memo_residue(res: dict, num: Polynomial, form: Polynomial) -> int | None:
    """_residue(num, form) through res, a residue memo of num."""
    if form in res:
        return res[form]
    r = res[form] = _residue(num, form)
    return r


# The residue of a form at another form's test point: the factor a
# cofactor or a divisor contributes.  Few distinct pairs occur.
_form_residue = lru_cache(maxsize=None)(_residue)


def _cancel(num: Polynomial, forms: dict, res: dict) -> tuple[Polynomial, dict, dict]:
    """Divide num by the listed forms as often as they divide it.  res is a
    residue memo of num (form -> _residue(num, form)); it gains the entries
    the tests compute, and the memo of the quotient is returned as a new
    dict, so a memo another function holds is never changed.

    A monic divisor leaves the quotient's coefficients prime to _P when
    num's are, so num then vanishes mod _P on form = 0: a nonzero residue
    settles that the form does not divide, and only a zero or undefined one
    runs the exact division."""
    kept = {}
    for form, e in forms.items():
        while e:
            if _memo_residue(res, num, form):
                break
            q = divexact(num, form)
            if q is None:
                break
            num = q
            e -= 1
            res = _divided(res, form)
        if e:
            kept[form] = e
    return num, kept, res


def _divided(res: dict, form: Polynomial) -> dict:
    """The memo of num / form from the memo of num.  An undefined entry, and
    one whose divisor residue is 0 or undefined, is dropped, to be
    evaluated when needed."""
    out = {}
    for g, r in res.items():
        if r is not None and g != form:
            d = _form_residue(form, g)
            if d:
                out[g] = r * pow(d, -1, _P) % _P
    return out


def _term_residue(f: "RationalFunction", form: Polynomial, cofactor: dict) -> int:
    """_residue(f.num * prod(h**m for h, m in cofactor.items()), form), from
    f's memo and the cofactor forms' residues at the form's test point.  The
    caller checks that every residue involved is defined."""
    if form in cofactor:
        return 0
    r = f._residue_at(form)
    for h, m in cofactor.items():
        r = r * pow(_form_residue(h, form), m, _P) % _P
    return r


@lru_cache(maxsize=None)
def _monic_form(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """(lc, p / lc) for a linear polynomial p.  Cached, so each monic form
    is one shared object: the first of its equal copies to arrive."""
    lc = p.leading_coeff()
    if lc == 1:
        return _ONE, p
    return lc, _monic_form(p.scale(_ONE / lc))[1]


def _shifted_form(form: Polynomial, offsets: Mapping[Var, Fraction]) -> Polynomial:
    """form.subs_offsets(offsets) for a monic linear form.  A shift moves only
    the constant, by -sum(c_v offsets[v]) / form.den over the form's integer
    coefficients c_v, so the shared result is cached on (form, that amount)."""
    moved = 0
    for m, c in form.terms.items():
        # a degree-1 monomial's top bit is its variable's field offset
        a = m and offsets.get(_VAR_AT[m.bit_length() - 1])
        if a:
            moved -= c * a
    return _plus_constant(form, moved) if moved else form


@lru_cache(maxsize=None)
def _plus_constant(form: Polynomial, moved: Fraction | int) -> Polynomial:
    """form + moved / form.den, a monic form again: its shared copy."""
    return _monic_form(form + Polynomial.constant(Fraction(moved, form.den)))[1]


@lru_cache(maxsize=None)
def _swapped_form(form: Polynomial, a: Var, b: Var) -> tuple[Fraction | int, Polynomial]:
    """_monic_form(form.swap_vars(a, b)): the unit a transposition leaves on
    a form whose leading variable it moves, an int when it is 1 or -1, and
    the shared monic form."""
    lc, form = _monic_form(form.swap_vars(a, b))
    return (int(lc) if lc in (1, -1) else lc), form


def _swapped(forms: dict, a: Var, b: Var) -> tuple[dict, Fraction | int]:
    """The monic forms of prod(form**e) with a and b transposed, and the unit
    the transposition leaves on the product, an int when it is 1 or -1."""
    out, unit = {}, 1
    for form, e in forms.items():
        lc, form = _swapped_form(form, a, b)
        out[form] = e
        if lc != 1:
            unit *= lc**e
    return out, unit


class RationalFunction:
    # _num is the expanded numerator, None while only the factors
    # _num_forms are kept; the residue memo _res is not part of == or hash
    __slots__ = ("_num", "forms", "_res", "_num_forms")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._res = self._num_forms = None
        if den.is_constant():
            self._num, self.forms = num.scale(_ONE / den.constant_value()), {}
        elif not _is_linear(den):
            raise ValueError(_NOT_LINEAR)
        elif num.is_zero():
            self._num, self.forms = num, {}
        else:
            lc, form = _monic_form(den)
            self._num, self.forms, res = _cancel(num.scale(_ONE / lc), {form: 1}, {})
            self._res = res if self.forms else None

    @classmethod
    def _make(cls, num: Polynomial | None, forms: dict, res=None,
              num_forms=None) -> "RationalFunction":
        # internal: no form divides num, or num is zero and forms is {};
        # res is a residue memo of num, a product's factors (see _memo) or None;
        # num_forms is (unit, {form: e}) with num == unit * prod(form**e), or
        # None; num may be None when num_forms is not
        f = cls.__new__(cls)
        f._num = num
        f.forms = forms
        f._res = res if forms else None
        f._num_forms = num_forms
        return f

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RationalFunction":
        return cls._make(p, {})

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls._make(Polynomial.constant(c), {})

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._make(Polynomial.zero(), {})

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._make(Polynomial.one(), {})

    @classmethod
    def variable(cls, k: int, i: int) -> "RationalFunction":
        return cls._make(Polynomial.variable(k, i), {})

    @property
    def num(self) -> Polynomial:
        """The expanded numerator: for a factored one, unit * prod(form**e),
        built on first use and kept."""
        num = self._num
        if num is None:
            unit, forms = self._num_forms
            num = _expand(forms.items())
            self._num = num = num if unit == 1 else -num if unit == -1 else num.scale(unit)
        return num

    @property
    def den(self) -> Polynomial:
        """The expanded monic denominator, built afresh."""
        return _expand(self.forms.items())

    def is_zero(self) -> bool:
        # a factored numerator is never zero
        num = self._num
        return num is not None and not num.terms

    def __bool__(self) -> bool:
        num = self._num
        return num is None or bool(num.terms)

    def is_polynomial(self) -> bool:
        return not self.forms

    def is_constant(self) -> bool:
        if self.forms:
            return False
        num = self._num
        return (self.num if num is None else num).is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.constant_value()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction) or self.forms != other.forms:
            return False
        a, b = self._num_forms, other._num_forms
        if a is not None and b is not None:
            # unique factorization: the units and the dicts of monic forms
            return a == b
        n1, n2 = self._num, other._num
        if n1 is None or n2 is None:
            n1, n2 = self.num, other.num
        return n1 == n2

    def __hash__(self) -> int:
        # forms is canonical as a dict, and equal functions have equal
        # reduced denominators, however their numerators are stored
        return hash(frozenset(self.forms.items()))

    def __neg__(self) -> "RationalFunction":
        num = self._num
        return self._with_num(None if num is None else -num, -1)

    def _with_num(self, num: Polynomial | None, c: Fraction | int) -> "RationalFunction":
        # same denominator; num = c * self.num for a nonzero constant c, or
        # None when self keeps no expanded numerator, so the factors' unit
        # scales by c (an integer c builds no Fraction)
        num_forms = self._num_forms
        if num_forms is not None:
            unit, b = num_forms[0] * c.numerator, c.denominator
            num_forms = (unit if b == 1 else Fraction(unit, b), num_forms[1])
        return RationalFunction._make(num, self.forms, None, num_forms)

    def _memo(self) -> dict:
        """The residue memo of num, built on first use and kept when self has
        forms.  Until then a product holds its two factors and their memos:
        residues multiply, r(n1 n2) = r(n1) r(n2), so a missing entry costs
        an evaluation of one factor, never of the product."""
        res = self._res
        if type(res) is dict:
            return res
        out = {}
        if res is not None:
            n1, res1, n2, res2 = res
            for form in self.forms:
                r1, r2 = _memo_residue(res1, n1, form), _memo_residue(res2, n2, form)
                if r1 is not None and r2 is not None:
                    out[form] = r1 * r2 % _P
        if self.forms:
            self._res = out
        return out

    def _residue_at(self, form: Polynomial) -> int | None:
        num = self._num
        return _memo_residue(self._memo(), self.num if num is None else num, form)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        n1, n2 = self._num, other._num
        if n1 is None or n2 is None:
            n1, n2 = self.num, other.num
        f1, f2 = self.forms, other.forms
        # Over the lcm of the two multisets, a form whose multiplicities
        # differ still divides exactly one cofactor, so only forms shared
        # with equal multiplicity can cancel.  Equal forms leave both
        # cofactors empty, and an empty cofactor multiplies nothing.
        lcm = dict(f1)
        for form, e in f2.items():
            if e > lcm.get(form, 0):
                lcm[form] = e
        a = {form: e - f1.get(form, 0) for form, e in lcm.items() if e > f1.get(form, 0)}
        b = {form: e - f2.get(form, 0) for form, e in lcm.items() if e > f2.get(form, 0)}
        num = (n1 * _expand(a.items()) if a else n1) + (n2 * _expand(b.items()) if b else n2)
        if num.is_zero():
            return RationalFunction.zero()
        # r(num) = r(n1) r(a) + r(n2) r(b) when every residue is defined; a
        # cofactor holding the form vanishes at its test point
        res = {}
        if n1.den % _P and n2.den % _P and all(form.den % _P for form in lcm):
            for form in lcm:
                res[form] = (_term_residue(self, form, a) + _term_residue(other, form, b)) % _P
        shared = {form: e for form, e in f1.items() if f2.get(form) == e}
        if shared:
            num, kept, res = _cancel(num, shared, res)
            for form in shared:
                del lcm[form]
            lcm.update(kept)
        return RationalFunction._make(num, lcm, res)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        # is_constant keeps the expanded numerator of a constant
        if self.is_constant():
            return other.scale(self._num.constant_value())
        if other.is_constant():
            return self.scale(other._num.constant_value())
        n1, n2 = self._num, other._num
        if n1 is None or n2 is None:
            n1, n2 = self.num, other.num
        f1, f2 = self.forms, other.forms
        # each side is reduced, so n1 can only cancel against f2, n2 against f1
        n1, f2, res1 = _cancel(n1, f2, self._memo())
        n2, forms, res2 = _cancel(n2, f1, other._memo())
        for form, e in f2.items():
            forms[form] = forms.get(form, 0) + e
        # the product's memo is derived from the factors' on first use; many products are never tested
        return RationalFunction._make(n1 * n2, forms, (n1, res1, n2, res2))

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self * other.reciprocal()

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return self.reciprocal() ** (-e)
        if e == 0:
            return RationalFunction.one()
        # num and the forms stay coprime under powers
        return RationalFunction._make(self.num**e, {form: m * e for form, m in self.forms.items()})

    def scale(self, c) -> "RationalFunction":
        c = Fraction(c)
        if not c:
            return RationalFunction.zero()
        if c == 1:
            return self
        num = self._num
        return self._with_num(None if num is None else num.scale(c), c)

    def den_divisible_by(self, lin: Polynomial) -> bool:
        """Whether the linear polynomial lin divides the denominator: whether
        its monic form is listed."""
        return _monic_form(lin)[1] in self.forms

    def evaluate(self, coords: Mapping[Var, Fraction]) -> Fraction:
        num_forms = self._num_forms
        if num_forms is None:
            d = self._num.terms
            xs, q = _int_point(coords, d, *(form.terms for form in self.forms))
            nq, dq = _int_eval(d, xs, q), self._num.den * q ** _top_degree(d)
        else:
            # a factored numerator is the product of its forms' values
            unit, nforms = num_forms
            xs, q = _int_point(coords, *(f.terms for f in nforms), *(f.terms for f in self.forms))
            nq, dq = unit.numerator, unit.denominator
            for form, e in nforms.items():
                nq *= _int_eval(form.terms, xs, q) ** e
                dq *= (form.den * q) ** e
        for form, e in self.forms.items():
            f = _int_eval(form.terms, xs, q)
            if not f:
                raise PoleError("denominator vanishes at the given point")
            nq *= (form.den * q) ** e
            dq *= f**e
        return Fraction(nq, dq)

    def subs_offsets(self, offsets: Mapping[Var, Fraction]) -> "RationalFunction":
        # affine substitution is a ring automorphism fixing leading terms,
        # so reducedness, the monic forms and a factored numerator's unit
        # survive untouched
        forms = {_shifted_form(form, offsets): e for form, e in self.forms.items()}
        num = self._num
        if num is not None:
            return RationalFunction._make(num.subs_offsets(offsets), forms)
        unit, nforms = self._num_forms
        nforms = {_shifted_form(form, offsets): e for form, e in nforms.items()}
        return RationalFunction._make(None, forms, None, (unit, nforms))

    def swap_vars(self, a: Var, b: Var) -> "RationalFunction":
        # an automorphism again, but the leading term of a form may move:
        # the denominator's unit divides the numerator
        forms, unit = _swapped(self.forms, a, b)
        num = self._num
        if num is not None:
            num = num.swap_vars(a, b)
            if unit != 1:
                num = -num if unit == -1 else num.scale(_ONE / unit)
            return RationalFunction._make(num, forms)
        nforms, u = _swapped(self._num_forms[1], a, b)
        u *= self._num_forms[0]
        if unit in (1, -1):
            u *= unit
        else:
            u /= unit
        return RationalFunction._make(None, forms, None, (u, nforms))

    def __repr__(self) -> str:
        from .textform import rf_text

        return rf_text(self)


def multiply_by_linear(f: RationalFunction, lin: Polynomial) -> RationalFunction:
    """f * lin for a linear polynomial lin; a listed form cancels with no test or division."""
    if f.is_zero():
        return f
    lc, form = _monic_form(lin)
    forms = dict(f.forms)
    e = forms.pop(form, 0)
    if not e:
        return RationalFunction._make(f.num * lin, f.forms)
    if e > 1:
        forms[form] = e - 1
    return RationalFunction._make(f.num.scale(lc), forms)
