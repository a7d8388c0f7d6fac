"""Two earlier flag products, kept as test oracles.

`polynomial_product` multiplies the Schubert polynomials of the two factors
term by term, expands each product in the Schubert basis of a symmetric
group S_m large enough to hold its monomials (triangular elimination on the
smallest monomial), and drops the labels outside S_n, which vanish in
H*(Fl_n). It shares no product code with `schubcalc.flag.flag_multiply`,
which walks the transition tree of each term and builds no polynomial.

`monomial_product` writes the cheaper factor as a polynomial through its
Schubert polynomials and applies each x-monomial to the other factor's
class one variable at a time, by Monk's rule inside S_n. It shares only the
Monk step `_times_variable` with the kernel.

`partition_to_osp` names the Grassmannian class of a partition as the
two-step flag class of an ordered set partition, for the tests that check
the two products against each other.
"""

from schubcalc.errors import BoxOverflow
from schubcalc.flag import FlagClass, _times_variable
from schubcalc.indexing import (
    fits_in_box,
    is_minimal_rep,
    normalize_partition,
    perm_pad,
    perm_strip,
)
from schubcalc.selftest import SparsePolynomial, expand_in_schubert_basis, schubert_polynomial


def partition_to_osp(lam, k, l):
    """Partition in the k x l box -> two-block OSP of {1..k+l}.

    The first block collects the jump positions lam_k + 1,
    lam_{k-1} + 2, ..., lam_1 + k (the partition is padded with zeros
    to k parts); the second block is the complement.
    """
    lam = normalize_partition(lam)
    if not fits_in_box(lam, k, l):
        raise BoxOverflow("partition %r does not fit in a %d x %d box" % (lam, k, l))
    padded = lam + (0,) * (k - len(lam))
    first = tuple(padded[k - j] + j for j in range(1, k + 1))
    rest = tuple(x for x in range(1, k + l + 1) if x not in set(first))
    return (first, rest)


def ambient_size(p, n):
    """Smallest m >= n whose staircase x_1^(m-1) ... x_(m-1) holds every monomial of p."""
    m = n
    for exp in p.terms:
        m = max(m, len(exp) + 1)
        for idx, e in enumerate(exp):
            m = max(m, e + idx + 1)
    return m


def polynomial_product(a, b):
    """a * b in H*(Fl_D(C^n)) through polynomial representatives."""
    a._check_space(b)
    space = a.space
    n = space.n
    out = {}
    for u, cu in a.terms.items():
        pu = schubert_polynomial(u)
        for v, cv in b.terms.items():
            prod = pu * schubert_polynomial(v)
            if prod.is_zero():
                continue
            m = ambient_size(prod, n)
            for w, c in expand_in_schubert_basis(prod, m).items():
                ws = perm_strip(w)
                if len(ws) > n:
                    continue
                ws = perm_pad(ws, n)
                assert is_minimal_rep(ws, space.dims), (u, v, ws)
                out[ws] = out.get(ws, 0) + cu * cv * c
    return FlagClass(space, out)


def _monomial_times(exp, memo, n):
    """x^exp times the class memo[()], memoised by monomial prefix.

    The prefix of a monomial lowers its last variable by one, so monomials
    that share leading exponents share the Monk steps that build them.
    """
    chain = []
    while exp not in memo:
        chain.append(exp)
        if exp[-1] > 1:
            exp = exp[:-1] + (exp[-1] - 1,)
        else:
            exp = exp[:-1]
            while exp and exp[-1] == 0:
                exp = exp[:-1]
    terms = memo[exp]
    for exp in reversed(chain):
        terms = _times_variable(len(exp), terms, n)
        memo[exp] = terms
    return terms


def monomial_product(a, b):
    """a * b in H*(Fl_D(C^n)), one Monk step per variable of each monomial."""
    a._check_space(b)
    if a._cheaper_than(b):
        a, b = b, a
    poly = SparsePolynomial()
    for v, c in b.terms.items():
        poly = poly + c * schubert_polynomial(v)
    space = a.space
    n = space.n
    memo = {(): a.terms}
    out = {}
    for exp, c in poly.terms.items():
        for w, d in _monomial_times(exp, memo, n).items():
            out[w] = out.get(w, 0) + c * d
    # labels outside the subring carry coefficients that cancel; _make drops
    # them before the check, as the kernel's own assert does
    product = FlagClass._make(space, out)
    return FlagClass(space, product.terms)
