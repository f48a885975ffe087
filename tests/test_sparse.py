"""The shared cancel-on-zero rule and the vector base built on it."""

from fractions import Fraction

import pytest

from gtsingular.distributions import BasisVec, DerivTabVec, DistVector
from gtsingular.ratfun import RationalFunction
from gtsingular.skewring import RingElement
from gtsingular.sparse import add_term
from gtsingular.tableau import Shift

ID = Shift.identity()
S11 = Shift.generator(1, 1)
S22 = Shift.generator(2, 2)


def test_add_term_cancels_and_skips_zero():
    acc = {"a": Fraction(2)}
    add_term(acc, "a", Fraction(-2))
    assert acc == {}
    add_term(acc, "b", Fraction(0))
    assert acc == {}
    add_term(acc, "b", Fraction(1, 3))
    add_term(acc, "b", Fraction(1, 3))
    add_term(acc, "b", Fraction(0))
    assert acc == {"b": Fraction(2, 3)}
    f = RationalFunction.variable(2, 1)
    rf_acc = {ID: f}
    add_term(rf_acc, ID, -f)
    add_term(rf_acc, S11, RationalFunction.zero())
    assert rf_acc == {}


def test_ring_element_cancels_repeated_shift():
    f = RationalFunction.variable(2, 1) / RationalFunction.variable(1, 1)
    assert RingElement([(S22, f), (S22, -f)]).is_zero()
    a = RingElement([(S22, f), (S11, f)])
    assert (a - a).is_zero() and (a - a).terms == {}


@pytest.mark.parametrize("cls, kinds", [(DistVector, ("D1", "D2")), (DerivTabVec, ("T", "DT"))])
def test_vector_cancel_scale_hash(cls, kinds):
    d = cls({(kinds[0], ID): Fraction(2), (kinds[1], S22): Fraction(-1, 3)})
    assert (d - d).is_zero() and (d - d) == cls.zero()
    assert d.scale(0).is_zero() and d.scale(0).coeffs == {}
    again = cls({(kinds[1], S22): Fraction(-1, 3)}) + cls({(kinds[0], ID): Fraction(2)})
    assert again == d and hash(again) == hash(d)
    assert d.scale(3) == d + d + d
    assert all(isinstance(key, BasisVec) for key in d.coeffs)


def test_vector_types_never_equal():
    coeffs = {("D1", ID): Fraction(1)}
    d, e = DistVector(coeffs), DerivTabVec(coeffs)
    assert d.coeffs == e.coeffs
    assert d != e and e != d
    with pytest.raises(TypeError):
        d + e


def test_vectors_print_labels_by_one_rule():
    d = DistVector({("D2", S22): Fraction(1, 2), ("D1", S22): Fraction(1), ("D1", ID): 3})
    e = DerivTabVec({("DT", S22): Fraction(1, 2), ("T", S22): Fraction(1), ("T", ID): 3})
    assert repr(d) == "3*D1[id] + 1*D1[σ[2,2]] + 1/2*D2[σ[2,2]]"
    # labels sort by shift, then by kind name: "DT" before "T"
    assert repr(e) == "3*T[id] + 1/2*DT[σ[2,2]] + 1*T[σ[2,2]]"
