"""Sparse multivariate polynomials with exact coefficients.

A term maps an exponent tuple to a nonzero coefficient.  Exponent tuples
are stored with trailing zeros stripped, so a polynomial does not remember
how many variables it was built with: x1*x2 is the same object coming
from two variables or from ten.  Variables are 1-indexed to match the
usual x1, x2, ... notation.  The linear arithmetic is the shared
`SparseCombination`'s, with no space.
"""

from fractions import Fraction
from operator import add

from .combination import SparseCombination, decimal_text


def _strip(exps):
    n = len(exps)
    while n > 0 and exps[n - 1] == 0:
        n -= 1
    return tuple(exps[:n])


def _add_exps(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


class SparsePolynomial(SparseCombination):
    """Immutable polynomial: a combination of monomials keyed by exponents."""

    __slots__ = ()
    _scalars = (int, Fraction)
    _rank = staticmethod(sum)

    def __init__(self, terms=None):
        """Build from a mapping exponent-tuple -> coefficient; zeros dropped."""
        super().__init__(None, terms or {})

    @staticmethod
    def _key(space, exps):
        return _strip(tuple(exps))

    @staticmethod
    def _unit_key(space):
        return ()

    def _product(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = _add_exps(ea, eb)
                out[key] = get(key, 0) + ca * cb
        return self._make(None, out)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.constant(other)
        return super().__add__(other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    @classmethod
    def one(cls):
        return cls.unit()

    @classmethod
    def constant(cls, c):
        return cls._make(None, {(): c})

    @classmethod
    def variable(cls, i):
        if i < 1:
            raise ValueError("variables are 1-indexed")
        return cls._make(None, {(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                "x%d" % (i + 1) if p == 1 else "x%d^%d" % (i + 1, p)
                for i, p in enumerate(e)
                if p
            )
            if not mono:
                bits.append(decimal_text(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (decimal_text(c), mono))
        return " + ".join(bits).replace("+ -", "- ")
