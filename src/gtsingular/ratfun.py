"""Rational functions in tableau variables, kept in reduced canonical form.

Canonical form: gcd(num, den) = 1, denominator monic under the graded-lex
order, and num = 0 stored as 0/1.  Structural equality then coincides with
equality of rational functions.

The denominators the Gelfand-Tsetlin formulas produce are products of
linear forms x[k][i] - x[k][j] + m.  A denominator known to factor that way
is kept as `forms`: a sorted tuple of (monic linear form, multiplicity)
pairs.  Its expanded product is the same monic `den` as above, built on
first use.  Linear forms are irreducible, so "reduced" means that no listed
form divides `num`, and each form is tested on its own: `num` is evaluated
modulo a prime on the form's zero set at a fixed integer point, and a
nonzero residue proves the form does not divide.  The one integer
evaluation kernel of `poly` computes the residue from the integer terms
and denominators of `num` and the form (no Fraction is built), after
solving the form for its leading variable.  Only a zero residue (or a
denominator the prime divides) runs the exact `divexact`, so no
probabilistic answer reaches a canonical form.

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
transpositions.  Results on the forms path are built directly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .poly import (
    _SHIFT,
    Polynomial,
    Var,
    _int_eval,
    _lead_field,
    divexact,
    mono_degree,
    mono_pack,
    poly_gcd,
)

_ONE = Fraction(1)

Forms = tuple[tuple[Polynomial, int], ...]

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
    return not p.is_constant() and mono_degree(max(p.terms)) == 1


def _form_key(item: tuple[Polynomial, int]):
    return sorted(item[0].terms.items())


def _sorted_forms(acc: dict[Polynomial, int]) -> Forms:
    return tuple(sorted(acc.items(), key=_form_key))


def _expand(forms) -> Polynomial:
    out = Polynomial.one()
    for form, e in forms:
        out = out * (form if e == 1 else form**e)
    return out


def _residue(p: Polynomial, form: Polynomial) -> int | None:
    """p mod _P at the point of form = 0 whose other coordinates are _COORDS;
    None when _P divides a coefficient denominator."""
    if form.den % _P == 0 or p.den % _P == 0:
        return None
    # the form is monic in its leading variable u: u = -(form at u = 0)
    u = _lead_field(max(form.terms))
    xs = dict(_FIELD_COORDS)
    xs[u] = 0
    xs[u] = -_int_eval(form.terms, xs) * pow(form.den, -1, _P) % _P
    return _int_eval(p.terms, xs) * pow(p.den, -1, _P) % _P


def _quotient(p: Polynomial, form: Polynomial) -> Polynomial | None:
    """p / form when the monic linear form divides p, else None.  A monic
    divisor leaves the quotient's coefficients prime to _P when p's are, so
    p then vanishes mod _P on form = 0: a nonzero residue settles it."""
    if _residue(p, form):
        return None
    return divexact(p, form)


def _cancel(num: Polynomial, forms) -> tuple[Polynomial, Forms]:
    """Divide num by the listed forms as often as they divide it."""
    kept = []
    for form, e in forms:
        while e:
            q = _quotient(num, form)
            if q is None:
                break
            num = q
            e -= 1
        if e:
            kept.append((form, e))
    return num, tuple(kept)


def _monic_form(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """(lc, p / lc) for a linear polynomial p."""
    lc = p.leading_coeff()
    return lc, (p if lc == 1 else p.scale(_ONE / lc))


class RationalFunction:
    __slots__ = ("num", "forms", "_den", "_hash")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self._hash = self._den = None
        if num.is_zero():
            self.num, self.forms = Polynomial.zero(), ()
            return
        if not (den.is_constant() or _is_linear(den)):
            g = poly_gcd(num, den)
            if not g.is_constant():
                num, den = divexact(num, g), divexact(den, g)
        if den.is_constant():
            self.num, self.forms = num.scale(_ONE / den.constant_value()), ()
        elif _is_linear(den):
            lc, form = _monic_form(den)
            self.num, self.forms = _cancel(num.scale(_ONE / lc), ((form, 1),))
        else:
            inv = _ONE / den.leading_coeff()
            self.num, self.forms, self._den = num.scale(inv), None, den.scale(inv)

    @classmethod
    def _make(cls, num: Polynomial, forms: Forms) -> "RationalFunction":
        # internal: no form divides num, or num is zero and forms is ()
        f = cls.__new__(cls)
        f.num = num
        f.forms = forms
        f._den = None
        f._hash = None
        return f

    @classmethod
    def from_poly(cls, p: Polynomial) -> "RationalFunction":
        return cls._make(p, ())

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls._make(Polynomial.constant(c), ())

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls._make(Polynomial.zero(), ())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls._make(Polynomial.one(), ())

    @classmethod
    def variable(cls, k: int, i: int) -> "RationalFunction":
        return cls._make(Polynomial.variable(k, i), ())

    @property
    def den(self) -> Polynomial:
        """The expanded monic denominator."""
        d = self._den
        if d is None:
            d = self._den = _expand(self.forms)
        return d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        # the expanded path only holds denominators of degree 2 or more
        return self.forms == ()

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
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.den))
        return h

    def __neg__(self) -> "RationalFunction":
        return self._with_num(-self.num)

    def _with_num(self, num: Polynomial) -> "RationalFunction":
        # same denominator; num a nonzero scalar multiple of self.num
        f = RationalFunction._make(num, self.forms)
        f._den = self._den
        return f

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
            return RationalFunction._make(*_cancel(num, f1))
        # Over the lcm of the two multisets, a form whose multiplicities
        # differ still divides exactly one cofactor, so only forms shared
        # with equal multiplicity can cancel.  The sum is not zero: opposite
        # values would have equal forms.
        d1, d2 = dict(f1), dict(f2)
        lcm = dict(d1)
        for form, e in f2:
            if e > lcm.get(form, 0):
                lcm[form] = e
        a = _expand((form, e - d1.get(form, 0)) for form, e in lcm.items() if e > d1.get(form, 0))
        b = _expand((form, e - d2.get(form, 0)) for form, e in lcm.items() if e > d2.get(form, 0))
        num = self.num * a + other.num * b
        shared = [(form, e) for form, e in f1 if d2.get(form) == e]
        if shared:
            num, kept = _cancel(num, shared)
            for form, _ in shared:
                del lcm[form]
            lcm.update(kept)
        return RationalFunction._make(num, _sorted_forms(lcm))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        f1, f2 = self.forms, other.forms
        if f1 is None or f2 is None:
            return RationalFunction(self.num * other.num, self.den * other.den)
        # each side is reduced, so n1 can only cancel against f2, n2 against f1
        n1, f2 = _cancel(self.num, f2)
        n2, f1 = _cancel(other.num, f1)
        if not f1 or not f2:
            forms = f1 or f2
        else:
            acc = dict(f1)
            for form, e in f2:
                acc[form] = acc.get(form, 0) + e
            forms = _sorted_forms(acc)
        return RationalFunction._make(n1 * n2, forms)

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
        return RationalFunction._make(self.num**e, tuple((form, m * e) for form, m in self.forms))

    def scale(self, c) -> "RationalFunction":
        c = Fraction(c)
        if not c:
            return RationalFunction.zero()
        return self._with_num(self.num.scale(c))

    def den_value(self, coords: Mapping[Var, Fraction]) -> Fraction:
        """The denominator's value at a point."""
        if self.forms is None:
            return self.den.evaluate(coords)
        out = _ONE
        for form, e in self.forms:
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
        moving = [
            (form, e, Fraction(form.terms[key], form.den)) for form, e in forms if key in form.terms
        ]
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
        num, kept = _cancel(num, [(form, e) for form, e in forms if form not in grown])
        acc = dict(kept)
        acc.update((form, e + 1) for form, e, _ in moving)
        return RationalFunction._make(num, _sorted_forms(acc))

    def subs_offsets(self, offsets: Mapping[Var, Fraction]) -> "RationalFunction":
        num = self.num.subs_offsets(offsets)
        if self.forms is None:
            return RationalFunction(num, self.den.subs_offsets(offsets))
        # affine substitution is a ring automorphism fixing leading terms,
        # so reducedness and the monic forms survive untouched
        return RationalFunction._make(
            num, _sorted_forms({form.subs_offsets(offsets): e for form, e in self.forms})
        )

    def swap_vars(self, a: Var, b: Var) -> "RationalFunction":
        num = self.num.swap_vars(a, b)
        if self.forms is None:
            return RationalFunction(num, self.den.swap_vars(a, b))
        # an automorphism again, but the leading term of a form may move
        acc = {}
        unit = _ONE
        for form, e in self.forms:
            lc, form = _monic_form(form.swap_vars(a, b))
            acc[form] = e
            unit *= lc**e
        return RationalFunction._make(num.scale(_ONE / unit), _sorted_forms(acc))

    def variables(self) -> list[Var]:
        return sorted(set(self.num.variables()) | set(self.den.variables()))

    def __repr__(self) -> str:
        from .textform import rf_text

        return rf_text(self)


def multiply_by_linear(f: RationalFunction, lin: Polynomial) -> RationalFunction:
    """f * lin for a linear polynomial lin."""
    if f.is_zero():
        return f
    if f.forms is None:
        return f * RationalFunction.from_poly(lin)
    lc, form = _monic_form(lin)
    forms = f.forms
    for idx, (listed, e) in enumerate(forms):
        if listed == form:
            left = ((form, e - 1),) if e > 1 else ()
            return RationalFunction._make(f.num.scale(lc), forms[:idx] + left + forms[idx + 1:])
    return RationalFunction._make(f.num * lin, forms)
