"""The shared cancel-on-zero rule and the finite-sum base built on it."""

from fractions import Fraction

import pytest

from gtsingular.distributions import BasisVec, DerivTabVec, DistVector
from gtsingular.poly import Polynomial
from gtsingular.ratfun import RationalFunction
from gtsingular.skewring import RingElement
from gtsingular.sparse import QVector, SparseSum, add_term
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


F = RationalFunction.variable(2, 1) / RationalFunction.variable(1, 1)

# two distinct keys and a coefficient maker for each finite-sum type
SUMS = {
    DistVector: ((("D1", ID), ("D2", S22)), Fraction),
    DerivTabVec: ((("T", ID), ("DT", S22)), Fraction),
    Polynomial: (((), (((2, 1), 1),)), Fraction),
    RingElement: ((ID, S22), F.scale),
}


def two_terms(cls, c0, c1):
    """The cls-sum c0*key0 + c1*key1 (either coefficient may be zero)."""
    (k0, k1), coeff = SUMS[cls]
    return cls({k0: coeff(c0), k1: coeff(c1)})


@pytest.mark.parametrize("cls", list(SUMS), ids=lambda cls: cls.__name__)
def test_vector_cancel_scale_hash(cls):
    d = two_terms(cls, 2, Fraction(-1, 3))
    zero = cls.zero()
    assert isinstance(d, SparseSum) and len(d.terms) == 2
    assert (d - d).is_zero() and (d - d) == zero and (d - d).terms == {}
    assert zero + d == d and d + zero == d
    assert d.scale(0).is_zero() and d.scale(0).terms == {}
    assert d.scale(1) == d
    again = two_terms(cls, 0, Fraction(-1, 3)) + two_terms(cls, 2, 0)
    assert again == d and hash(again) == hash(d)
    assert d.scale(3) == d + d + d
    assert not zero and bool(d)
    if issubclass(cls, QVector):
        assert all(isinstance(key, BasisVec) for key in d.terms)


def test_polynomial_and_ring_element_never_mix():
    p = Polynomial.constant(1)
    a = RingElement.term(RationalFunction.constant(1), ID)
    assert p != a and a != p
    with pytest.raises(TypeError):
        p + a
    with pytest.raises(TypeError):
        a + p


def test_zero_sums_and_mixed_subtraction():
    zero_coeff = RingElement.term(RationalFunction.zero(), S11)
    assert zero_coeff.is_zero() and zero_coeff == RingElement.zero()
    assert repr(RingElement.zero()) == "0"
    assert repr(DistVector.zero()) == repr(QVector()) == "0"
    a = RingElement.term(RationalFunction.constant(1), ID)
    assert a.__sub__(Polynomial.constant(1)) is NotImplemented
    with pytest.raises(TypeError):
        a - Polynomial.constant(1)


def test_vector_types_never_equal():
    coeffs = {("D1", ID): Fraction(1)}
    d, e = DistVector(coeffs), DerivTabVec(coeffs)
    assert d.terms == e.terms
    assert d != e and e != d
    with pytest.raises(TypeError):
        d + e


def test_vectors_print_labels_by_one_rule():
    d = DistVector({("D2", S22): Fraction(1, 2), ("D1", S22): Fraction(1), ("D1", ID): 3})
    e = DerivTabVec({("DT", S22): Fraction(1, 2), ("T", S22): Fraction(1), ("T", ID): 3})
    assert repr(d) == "3*D1[id] + 1*D1[σ[2,2]] + 1/2*D2[σ[2,2]]"
    # labels sort by shift, then by kind name: "DT" before "T"
    assert repr(e) == "3*T[id] + 1/2*DT[σ[2,2]] + 1*T[σ[2,2]]"


# every finite-sum type, with two keys in print order
PRINT_ORDER = {
    Polynomial: ((((2, 1), 1),), ()),
    RingElement: (ID, S22),
    DistVector: (("D1", ID), ("D2", S22)),
    DerivTabVec: (("DT", ID), ("T", S22)),
    Shift: ((1, 1), (2, 2)),
}


@pytest.mark.parametrize("cls", list(PRINT_ORDER), ids=lambda cls: cls.__name__)
def test_support_and_sorted_items_on_every_sum(cls):
    """Terms keep insertion order; support() and sorted_items() build the
    print order."""
    first, second = PRINT_ORDER[cls]
    coeff = F if cls is RingElement else 3
    s = cls({second: coeff, first: coeff})
    keys = list(s.terms)
    assert len(keys) == 2
    assert s.support() == keys[::-1]
    assert s.sorted_items() == [(key, s.terms[key]) for key in keys[::-1]]
    assert cls.zero().support() == [] and cls.zero().sorted_items() == []
