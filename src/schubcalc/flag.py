"""Schubert calculus on partial flag manifolds via Schubert polynomials.

Basis classes are indexed by minimal-length coset representatives for the
block-permutation subgroup of the flag's dimension vector. Products are
computed at the polynomial level: multiply the two Schubert polynomial
representatives, expand the result in the Schubert basis of a large enough
symmetric group by triangular elimination, then keep only labels that index
classes of the target manifold. Expansion correctness does not rest on
trusting the leading-term convention: every elimination step re-checks that
the basis polynomial it subtracts has the expected minimal monomial with
coefficient one, so a convention slip raises instead of corrupting output.
"""

from dataclasses import dataclass

from .combination import SparseCombination
from .errors import SupportOutsideStaircase
from .indexing import (
    identity_perm,
    is_minimal_rep,
    longest_perm,
    normalize_perm,
    osp_block_sizes,
    osp_from_perm,
    perm_code,
    perm_compose,
    perm_from_code,
    perm_from_osp,
    perm_inverse,
    perm_length,
    perm_pad,
    perm_strip,
    perm_swap_positions,
    reduced_word,
)
from .poly import SparsePolynomial


def divided_difference(i, p):
    """Apply (p - swap_i(p)) / (x_i - x_{i+1}), term by term.

    For a single monomial the quotient telescopes: with a = exponent of x_i,
    b = exponent of x_{i+1}, m = min(a, b) and q = |a - b|, the result is
    sign(a - b) times the sum of monomials x_i^(m+t) x_{i+1}^(m+q-1-t) for
    0 <= t < q, carrying the other variables along unchanged. Symmetric
    monomials (a = b) die.
    """
    if i < 1:
        raise ValueError("variable index must be at least 1")
    out = {}
    for exp, c in p.terms.items():
        a = exp[i - 1] if len(exp) >= i else 0
        b = exp[i] if len(exp) > i else 0
        if a == b:
            continue
        sign = 1 if a > b else -1
        m, q = min(a, b), abs(a - b)
        base = list(exp) + [0] * (i + 1 - len(exp))
        for t in range(q):
            base[i - 1] = m + t
            base[i] = m + q - 1 - t
            key = tuple(base)
            while key and key[-1] == 0:
                key = key[:-1]
            out[key] = out.get(key, 0) + sign * c
    return SparsePolynomial(out)


def staircase_monomial(n):
    """x_1^(n-1) x_2^(n-2) ... x_{n-1}, the top Schubert polynomial for S_n."""
    return SparsePolynomial.monomial(tuple(range(n - 1, 0, -1)), 1)


@dataclass(frozen=True)
class SchubertPolynomial:
    """A Schubert polynomial together with the permutation labeling it."""

    perm: tuple
    poly: SparsePolynomial

    @property
    def degree(self):
        return perm_length(self.perm)


# Filled lazily; entries are complete before being published, and dict
# assignment is atomic, so concurrent readers never see a partial value.
_schubert_table = {}


def schubert_polynomial(w):
    """Schubert polynomial of w, stable under embedding into larger groups.

    Starts from the staircase monomial for the longest element and walks
    down along a reduced word of w^{-1} w_0, applying one divided difference
    per letter, rightmost letter first.
    """
    w = perm_strip(normalize_perm(w))
    cached = _schubert_table.get(w)
    if cached is not None:
        return cached
    n = len(w)
    if n == 0:
        result = SchubertPolynomial((), SparsePolynomial.one())
    else:
        u = perm_compose(perm_inverse(w), longest_perm(n))
        p = staircase_monomial(n)
        for i in reversed(reduced_word(u)):
            p = divided_difference(i, p)
        result = SchubertPolynomial(w, p)
    _schubert_table[w] = result
    return result


def _staircase_check(p, n):
    for exp in p.terms:
        if len(exp) > n - 1 or any(e > n - 1 - idx for idx, e in enumerate(exp)):
            raise SupportOutsideStaircase(
                f"monomial {exp} is outside the staircase for S_{n}"
            )


def expand_in_schubert_basis(p, n):
    """Write p as an integer combination of Schubert polynomials for S_n.

    Triangular elimination on the lexicographically smallest monomial
    (x_1 major): that monomial is x^code(w) for a unique w, and the Schubert
    polynomial of w contains it with coefficient 1 and nothing smaller.
    Subtracting peels one basis element per round.
    """
    _staircase_check(p, n)
    out = {}
    work = p
    while not work.is_zero():
        exp = min(work.terms)
        c = work.terms[exp]
        w = perm_from_code(exp)
        basis = schubert_polynomial(w).poly
        if min(basis.terms) != exp or basis.terms[exp] != 1:
            raise AssertionError(
                f"leading-monomial property failed for {w}; "
                "term-order convention violated"
            )
        work = work - c * basis
        out[perm_pad(w, n)] = c
    return out


def _ambient_size(p, n):
    m = n
    for exp in p.terms:
        m = max(m, len(exp) + 1)
        for idx, e in enumerate(exp):
            m = max(m, e + idx + 1)
    return m


@dataclass(frozen=True)
class FlagDescriptor:
    """Fl_D(C^n): flags with subquotient dimensions D = (d_1, ..., d_r)."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"flag dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n(self):
        return sum(self.dims)

    @property
    def complex_dimension(self):
        total = 0
        for i in range(len(self.dims)):
            for j in range(i + 1, len(self.dims)):
                total += self.dims[i] * self.dims[j]
        return total

    @property
    def boundaries(self):
        """Positions where a block ends; these index the degree-1 classes."""
        acc, out = 0, []
        for d in self.dims[:-1]:
            acc += d
            out.append(acc)
        return tuple(out)

    def top_representative(self):
        """The longest minimal coset representative: descending blocks."""
        out = []
        start = self.n
        for d in self.dims:
            out.extend(range(start - d + 1, start + 1))
            start -= d
        return tuple(out)

    def __str__(self):
        return f"Fl{self.dims}(C^{self.n})"


class FlagClass(SparseCombination):
    """Sparse integer combination of Schubert classes on a partial flag manifold.

    Keys are minimal coset representative permutations, stored padded to n.
    """

    __slots__ = ()
    _rank = staticmethod(perm_length)
    _symbol = "S"

    @staticmethod
    def _key(space, w):
        w = perm_pad(normalize_perm(w), space.n)
        if len(w) != space.n:
            raise ValueError(f"{w} is not a permutation of 1..{space.n}")
        if not is_minimal_rep(w, space.dims):
            raise ValueError(
                f"{w} is not a minimal coset representative for {space.dims}"
            )
        return w

    @staticmethod
    def _unit_key(space):
        return identity_perm(space.n)

    def _product(self, other):
        return flag_multiply(self, other)

    @classmethod
    def from_permutation(cls, space, w):
        return cls(space, {w: 1})

    @classmethod
    def from_osp(cls, space, osp):
        if osp_block_sizes(osp) != space.dims:
            raise ValueError(
                f"OSP block sizes {osp_block_sizes(osp)} do not match {space.dims}"
            )
        return cls(space, {perm_from_osp(osp): 1})

    @classmethod
    def basis(cls, space, index):
        if index and isinstance(index[0], tuple):
            return cls.from_osp(space, index)
        return cls.from_permutation(space, index)

    def osp_terms(self):
        return {osp_from_perm(w, self.space.dims): c for w, c in self.terms.items()}


def flag_multiply(a, b):
    """Product in H*(Fl_D(C^n)) through polynomial representatives.

    Labels outside S_n vanish in the quotient and are dropped; labels inside
    S_n must already be minimal representatives (the subring spanned by them
    is closed under products), which is asserted rather than assumed.
    """
    a._check_space(b)
    space = a.space
    n = space.n
    out = {}
    for u, cu in a.terms.items():
        pu = schubert_polynomial(u).poly
        for v, cv in b.terms.items():
            prod = pu * schubert_polynomial(v).poly
            if prod.is_zero():
                continue
            m = _ambient_size(prod, n)
            for w, c in expand_in_schubert_basis(prod, m).items():
                ws = perm_strip(w)
                if len(ws) > n:
                    continue
                ws = perm_pad(ws, n)
                assert is_minimal_rep(ws, space.dims), (u, v, ws)
                out[ws] = out.get(ws, 0) + cu * cv * c
    return FlagClass._make(space, out)


def flag_integrate(a):
    """Coefficient of the longest minimal representative (the point class)."""
    return a.terms.get(a.space.top_representative(), 0)


def monk_multiply(r, a):
    """Multiply a by the degree-1 class of the block boundary r.

    Independent of the polynomial machinery: enumerate transpositions
    swapping a position <= r with one > r that raise length by exactly 1,
    i.e. w(i) < w(j) with no intermediate value between them.
    """
    space = a.space
    if r not in space.boundaries:
        raise ValueError(
            f"{r} is not a block boundary of {space}; "
            f"degree-1 classes sit at {space.boundaries}"
        )
    n = space.n
    out = {}
    for w, c in a.terms.items():
        for i in range(1, r + 1):
            for j in range(r + 1, n + 1):
                lo, hi = w[i - 1], w[j - 1]
                if lo >= hi:
                    continue
                if any(lo < w[t - 1] < hi for t in range(i + 1, j)):
                    continue
                nw = perm_swap_positions(w, i, j)
                out[nw] = out.get(nw, 0) + c
    return FlagClass._make(space, out)
