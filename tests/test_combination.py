"""The linear arithmetic all five class types share, and their key checks."""

from collections import namedtuple
from fractions import Fraction

import pytest

from schubcalc.errors import BoxOverflow, SpaceMismatch
from schubcalc.flag import FlagClass, FlagDescriptor
from schubcalc.grassmann import GrassmannClass, GrassmannianDescriptor
from schubcalc.halving import HalvingClass, HalvingSpaceDescriptor
from schubcalc.indexing import perm_double
from schubcalc.schur import SchurExpansion
from schubcalc.selftest import SparsePolynomial

# basis(key) builds a basis class; other is a class on another space (None
# for Schur expansions, which have no space); bad() must raise error.
Case = namedtuple("Case", "basis zero unit a b other rebuild bad error")

GR24 = GrassmannianDescriptor(2, 4)
FL21 = FlagDescriptor((2, 1))
FL222R6 = HalvingSpaceDescriptor.real_even_flag((2, 2, 2))


def grassmann():
    return Case(
        basis=lambda key: GrassmannClass.basis(GR24, key),
        zero=GrassmannClass.zero(GR24),
        unit=GrassmannClass.unit(GR24),
        a=(1,),
        b=(2,),
        other=GrassmannClass.basis(GrassmannianDescriptor(1, 3), (1,)),
        rebuild=lambda x: GrassmannClass(x.space, x.terms),
        bad=lambda: GrassmannClass.basis(GR24, (3,)),
        error=BoxOverflow,
    )


def flag():
    return Case(
        basis=lambda key: FlagClass.basis(FL21, key),
        zero=FlagClass.zero(FL21),
        unit=FlagClass.unit(FL21),
        a=(1, 3, 2),
        b=(2, 3, 1),
        other=FlagClass.basis(FlagDescriptor((1, 2)), (2, 1, 3)),
        rebuild=lambda x: FlagClass(x.space, x.terms),
        bad=lambda: FlagClass(FL21, {(2, 1, 3): 1}),
        error=ValueError,
    )


def halving():
    return Case(
        basis=lambda key: HalvingClass.basis(FL222R6, key),
        zero=HalvingClass.zero(FL222R6),
        unit=HalvingClass.unit(FL222R6),
        a=perm_double((2, 1, 3)),
        b=perm_double((1, 3, 2)),
        other=HalvingClass.basis(
            HalvingSpaceDescriptor.real_even_grassmannian(4, 8), (2, 2)
        ),
        rebuild=lambda x: HalvingClass(x.space, x.terms),
        bad=lambda: HalvingClass.basis(FL222R6, (1, 2, 3, 4, 5, 6, 7)),
        error=ValueError,
    )


def schur():
    return Case(
        basis=SchurExpansion.basis,
        zero=SchurExpansion.zero(),
        unit=SchurExpansion.one(),
        a=(1,),
        b=(2, 1),
        other=None,
        rebuild=lambda x: SchurExpansion(x.terms),
        bad=lambda: SchurExpansion.basis((1, 2)),
        error=ValueError,
    )


def polynomial():
    return Case(
        basis=SparsePolynomial.monomial,
        zero=SparsePolynomial.zero(),
        unit=SparsePolynomial.one(),
        a=(1,),
        b=(0, 2),
        other=None,
        rebuild=lambda x: SparsePolynomial(x.terms),
        bad=lambda: SparsePolynomial.variable(0),
        error=ValueError,
    )


@pytest.mark.parametrize("make", [grassmann, flag, halving, schur, polynomial])
def test_shared_arithmetic(make):
    case = make()
    a, b = case.basis(case.a), case.basis(case.b)

    assert a + b == b + a
    assert (a + b) - b == a
    assert -(-a) == a
    assert (a - a) == case.zero
    assert not case.zero and not (a - a)
    assert a and a + b
    assert 3 * a == a + a + a == a * 3
    assert (0 * a).is_zero()
    assert a.coefficient(case.a) == 1 and (a + b).coefficient(case.b) == 1

    assert a ** 0 == case.unit
    assert a ** 1 == a
    assert a ** 2 == a * a
    assert case.unit * b == b
    with pytest.raises(ValueError):
        a ** -1

    # results built without validation hold the keys a validated build makes
    for result in (a + b, -a, 2 * b, a * b, (a + b) ** 3):
        assert case.rebuild(result) == result

    assert case.basis(case.a) == a
    assert hash(case.basis(case.a)) == hash(a)
    assert len({a, case.basis(case.a), b}) == 2
    assert a != b
    assert a != a.terms

    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        a.space = None

    if case.other is not None:
        for op in (lambda: a + case.other, lambda: a - case.other, lambda: a * case.other):
            with pytest.raises(SpaceMismatch):
                op()

    with pytest.raises(case.error):
        case.bad()


def test_repr_writes_coefficients_past_the_str_digit_limit():
    huge = 10 ** 5000
    digits = "1" + "0" * 5000
    assert repr(GrassmannClass(GR24, {(1,): huge})) == f"<{digits}*s[1] on {GR24}>"
    assert repr(SchurExpansion({(2, 1): -huge})) == f"-{digits}*s[2, 1]"
    poly = SparsePolynomial({(): huge, (1,): Fraction(-huge, 3)})
    assert repr(poly) == f"{digits} - {digits}/3*x1"
