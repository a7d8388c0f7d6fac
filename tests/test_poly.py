"""SparsePolynomial arithmetic."""

from fractions import Fraction

from hypothesis import given, strategies as st

from schubcalc.selftest import SparsePolynomial


def x(i):
    return SparsePolynomial.variable(i)


@st.composite
def poly_strategy(draw, max_terms=6, max_vars=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_exp)) for _ in range(max_vars))
        terms[exps] = draw(st.integers(-5, 5))
    return SparsePolynomial(terms)


def test_constructor_strips_and_drops_zeros():
    p = SparsePolynomial({(1, 0, 0): 2, (0, 1): 0})
    assert p.terms == {(1,): 2}
    assert SparsePolynomial({}).is_zero()
    assert SparsePolynomial.constant(0).is_zero()


def test_basic_arithmetic():
    p = (x(1) + x(2)) * (x(1) - x(2))
    assert p == x(1) * x(1) - x(2) * x(2)
    assert (x(1) + 1) * (x(1) - 1) == x(1) ** 2 - 1
    assert 3 * x(2) - x(2) - x(2) - x(2) == SparsePolynomial.zero()


def test_pow_matches_repeated_product():
    p = x(1) + 2 * x(2) + 1
    q = SparsePolynomial.one()
    for _ in range(5):
        q = q * p
    assert p ** 5 == q
    assert p ** 0 == SparsePolynomial.one()


def test_trailing_zero_insensitivity():
    assert SparsePolynomial({(2, 0): 1}) == SparsePolynomial({(2,): 1})
    p = SparsePolynomial({(1, 1, 0, 0): 3})
    assert p.coefficient((1, 1)) == 3


def test_degree_and_repr():
    p = x(1) * x(2) ** 2 + x(3) ** 2 + 1
    # terms are ordered by total degree first, then by exponents
    assert [e for e, _ in p.sorted_terms()] == [(), (0, 0, 2), (1, 2)]
    assert "x1" in repr(p)
    assert repr(Fraction(1, 2) * x(1) - 3 * x(2) ** 2) == "1/2*x1 - 3*x2^2"


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + SparsePolynomial.zero() == a
    assert a * SparsePolynomial.one() == a
    assert a - a == SparsePolynomial.zero()
