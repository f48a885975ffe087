"""Rational functions in tableau variables, kept in reduced canonical form.

Canonical form: gcd(num, den) = 1, denominator monic under the graded-lex
order, and num = 0 stored as 0/1.  Structural equality then coincides with
equality of rational functions.

The denominators the Gelfand-Tsetlin formulas produce are products of
linear forms x[k][i] - x[k][j] + m.  A denominator known to factor that way
is kept as `forms`: a dict from monic linear form to multiplicity, in no
order (dict equality is canonical).  Its expanded product, the one that is
printed, is the same monic `den` as above, built on first use.  Linear
forms are irreducible, so "reduced" means that no listed form divides
`num`, and each form is tested on its own: `num` is evaluated modulo a
prime on the form's zero set at a fixed integer point, and a nonzero
residue proves the form does not divide.  The one integer evaluation
kernel of `poly` computes the residue from the integer terms and
denominators of `num` and the form (no Fraction is built), after solving
the form for its leading variable.  Only a zero residue (or a denominator
the prime divides) runs the exact `divexact`, so no probabilistic answer
reaches a canonical form.

A residue is an evaluation, a ring homomorphism into the integers modulo
the prime, so a result's residues follow from its operands' and a test
costs the new term, not the accumulated numerator.  Each forms-path
function memoizes the residue of its numerator at each form's test point
(the memo is not part of == or hash).  A sum over equal forms adds the
operands' residues; over different forms it takes r(n1) r(a) + r(n2) r(b),
with a and b the cofactors, whose residue is the product of their forms'
residues at the test point (a cofactor holding the form vanishes there,
so only the side holding it at the top multiplicity contributes).  A
product multiplies its factors' residues, and derives its memo only when
a later operation first needs it; negation and scaling by c multiply by c.
Dividing out a form f divides every other entry by f's residue at that
entry's point, and drops the entry when that residue is 0.  A missing
entry is evaluated on the operand that lacks it, one factor or one term.
An entry is derived only when every residue it comes from is defined, so
each equals the residue of the numerator itself: the memo changes what a
test costs, never what it decides.  Each form's test point is solved once
and cached.

The constructor RationalFunction(num, den) is the one normaliser: every
pair not already known to be reduced goes through it.  A constant or linear
den goes to the forms path.  Any other den has unknown factorization; the
constructor reduces it with `poly_gcd`, a primitive polynomial remainder
sequence, and this is the one place a gcd runs.  If the reduced den has
degree at most 1 it returns to the forms path; otherwise it is stored
monic and expanded (`forms` is None).  Such a denominator arises only from
the reciprocal of a non-linear numerator, or from a non-linear den given
explicitly.  Every operation on such an operand builds its result
unreduced and hands it to the constructor: sums (n1*d2 + n2*d1 over d1*d2),
products, reciprocals (den over num), powers, affine substitutions and
transpositions.  Results on the forms path are built directly, and a
product with a constant factor only scales the other numerator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .poly import (
    _SHIFT,
    Polynomial,
    Var,
    _int_eval,
    _lead_field,
    _top_degree,
    divexact,
    mono_pack,
    poly_gcd,
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


def _monic_form(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """(lc, p / lc) for a linear polynomial p."""
    lc = p.leading_coeff()
    return lc, (p if lc == 1 else p.scale(_ONE / lc))


class RationalFunction:
    # _res, the residue memo of num, is not part of == or hash
    __slots__ = ("num", "forms", "_den", "_res")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._den = self._res = None
        if num.is_zero():
            self.num, self.forms = Polynomial.zero(), {}
            return
        if not (den.is_constant() or _is_linear(den)):
            g = poly_gcd(num, den)
            if not g.is_constant():
                num, den = divexact(num, g), divexact(den, g)
        if den.is_constant():
            self.num, self.forms = num.scale(_ONE / den.constant_value()), {}
        elif _is_linear(den):
            lc, form = _monic_form(den)
            self.num, self.forms, res = _cancel(num.scale(_ONE / lc), {form: 1}, {})
            self._res = res if self.forms else None
        else:
            inv = _ONE / den.leading_coeff()
            self.num, self.forms, self._den = num.scale(inv), None, den.scale(inv)

    @classmethod
    def _make(cls, num: Polynomial, forms: dict | None, res=None) -> "RationalFunction":
        # internal: no form divides num, or num is zero and forms is {};
        # res is a residue memo of num, a product's factors (see _memo) or None
        f = cls.__new__(cls)
        f.num = num
        f.forms = forms
        f._den = None
        f._res = res if forms else None
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
    def den(self) -> Polynomial:
        """The expanded monic denominator."""
        d = self._den
        if d is None:
            d = self._den = _expand(self.forms.items())
        return d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        # the expanded path only holds denominators of degree 2 or more
        return self.forms == {}

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.is_polynomial()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.constant_value()

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction) or self.num != other.num:
            return False
        if self.forms is not None and other.forms is not None:
            return self.forms == other.forms
        return self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> "RationalFunction":
        return self._with_num(-self.num, -1)

    def _with_num(self, num: Polynomial, c: Fraction | int) -> "RationalFunction":
        # same denominator; num = c * self.num for a nonzero constant c, so the memo scales by c, not evaluated again
        res = self._res
        if res is not None:
            res = self._memo()
            a, b = c.numerator, c.denominator
            if a % _P and b % _P:
                k = a * pow(b, -1, _P)
                res = {form: r if r is None else r * k % _P for form, r in res.items()}
            else:
                res = None
        f = RationalFunction._make(num, self.forms, res)
        f._den = self._den
        return f

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
        return _memo_residue(self._memo(), self.num, form)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        f1, f2 = self.forms, other.forms
        if f1 is None or f2 is None:
            d1, d2 = self.den, other.den
            return RationalFunction(self.num * d2 + other.num * d1, d1 * d2)
        if f1 == f2:
            num = self.num + other.num
            if num.is_zero():
                return RationalFunction.zero()
            # most sums meet equal forms and need no cofactor; residues add
            res = {}
            for form in f1:
                r1, r2 = self._residue_at(form), other._residue_at(form)
                if r1 is not None and r2 is not None:
                    res[form] = (r1 + r2) % _P
            return RationalFunction._make(*_cancel(num, f1, res))
        # Over the lcm of the two multisets, a form whose multiplicities
        # differ still divides exactly one cofactor, so only forms shared
        # with equal multiplicity can cancel.  The sum is not zero: opposite
        # values would have equal forms.
        lcm = dict(f1)
        for form, e in f2.items():
            if e > lcm.get(form, 0):
                lcm[form] = e
        a = {form: e - f1.get(form, 0) for form, e in lcm.items() if e > f1.get(form, 0)}
        b = {form: e - f2.get(form, 0) for form, e in lcm.items() if e > f2.get(form, 0)}
        num = self.num * _expand(a.items()) + other.num * _expand(b.items())
        # r(num) = r(n1) r(a) + r(n2) r(b) when every residue is defined; a
        # cofactor holding the form vanishes at its test point
        res = {}
        if self.num.den % _P and other.num.den % _P and all(form.den % _P for form in lcm):
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
        if self.is_constant():
            return other.scale(self.num.constant_value())
        if other.is_constant():
            return self.scale(other.num.constant_value())
        f1, f2 = self.forms, other.forms
        if f1 is None or f2 is None:
            return RationalFunction(self.num * other.num, self.den * other.den)
        # each side is reduced, so n1 can only cancel against f2, n2 against f1
        n1, f2, res1 = _cancel(self.num, f2, self._memo())
        n2, forms, res2 = _cancel(other.num, f1, other._memo())
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
        if self.forms is None:
            return RationalFunction(self.num**e, self.den**e)
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
        return self._with_num(self.num.scale(c), c)

    def den_divisible_by(self, lin: Polynomial) -> bool:
        """Whether the linear polynomial lin divides the denominator: on the
        forms path, whether its monic form is listed."""
        if self.forms is None:
            return divexact(self.den, lin) is not None
        return _monic_form(lin)[1] in self.forms

    def den_value(self, coords: Mapping[Var, Fraction]) -> Fraction:
        """The denominator's value at a point."""
        if self.forms is None:
            return self.den.evaluate(coords)
        out = _ONE
        for form, e in self.forms.items():
            out *= form.evaluate(coords) ** e
        return out

    def evaluate(self, coords: Mapping[Var, Fraction]) -> Fraction:
        dv = self.den_value(coords)
        if dv == 0:
            raise PoleError("denominator vanishes at the given point")
        return self.num.evaluate(coords) / dv

    def derivative(self, var: Var) -> "RationalFunction":
        if self.is_polynomial():
            return RationalFunction.from_poly(self.num.derivative(var))
        n, forms = self.num, self.forms
        if forms is None:
            d = self.den
            return RationalFunction(n.derivative(var) * d - n * d.derivative(var), d * d)
        # With L the product of the forms l that contain var, each with
        # coefficient c and multiplicity e:
        #   (n/d)' = (n'L - n * sum e*c*L/l) / (d*L).
        # The new numerator is prime to every form of L, so only the forms
        # free of var can cancel.
        key = mono_pack(((var, 1),))
        moving = [(form, e, Fraction(form.terms[key], form.den))
                  for form, e in forms.items() if key in form.terms]
        num = n.derivative(var)
        if moving:
            big = _expand((form, 1) for form, _, _ in moving)
            s = Polynomial.zero()
            for i, (_, e, c) in enumerate(moving):
                s = s + _expand(
                    (form, 1) for j, (form, _, _) in enumerate(moving) if j != i
                ).scale(e * c)
            num = num * big - n * s
        if num.is_zero():
            return RationalFunction.zero()
        grown = {form for form, _, _ in moving}
        num, kept, res = _cancel(num, {form: e for form, e in forms.items() if form not in grown}, {})
        kept.update((form, e + 1) for form, e, _ in moving)
        return RationalFunction._make(num, kept, res)

    def subs_offsets(self, offsets: Mapping[Var, Fraction]) -> "RationalFunction":
        num = self.num.subs_offsets(offsets)
        if self.forms is None:
            return RationalFunction(num, self.den.subs_offsets(offsets))
        # affine substitution is a ring automorphism fixing leading terms,
        # so reducedness and the monic forms survive untouched
        return RationalFunction._make(
            num, {form.subs_offsets(offsets): e for form, e in self.forms.items()}
        )

    def swap_vars(self, a: Var, b: Var) -> "RationalFunction":
        num = self.num.swap_vars(a, b)
        if self.forms is None:
            return RationalFunction(num, self.den.swap_vars(a, b))
        # an automorphism again, but the leading term of a form may move
        forms = {}
        unit = _ONE
        for form, e in self.forms.items():
            lc, form = _monic_form(form.swap_vars(a, b))
            forms[form] = e
            unit *= lc**e
        return RationalFunction._make(num.scale(_ONE / unit), forms)

    def variables(self) -> list[Var]:
        return sorted(set(self.num.variables()) | set(self.den.variables()))

    def __repr__(self) -> str:
        from .textform import rf_text

        return rf_text(self)


def multiply_by_linear(f: RationalFunction, lin: Polynomial) -> RationalFunction:
    """f * lin for a linear polynomial lin; a listed form cancels with no test or division."""
    if f.is_zero():
        return f
    if f.forms is None:
        return f * RationalFunction.from_poly(lin)
    lc, form = _monic_form(lin)
    forms = dict(f.forms)
    e = forms.pop(form, 0)
    if not e:
        return RationalFunction._make(f.num * lin, f.forms)
    if e > 1:
        forms[form] = e - 1
    return RationalFunction._make(f.num.scale(lc), forms)
