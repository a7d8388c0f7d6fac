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
"""

from schubcalc.flag import FlagClass, _times_variable, schubert_polynomial
from schubcalc.indexing import is_minimal_rep, perm_pad, perm_strip
from schubcalc.poly import SparsePolynomial
from schubcalc.selftest import expand_in_schubert_basis


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
        pu = schubert_polynomial(u).poly
        for v, cv in b.terms.items():
            prod = pu * schubert_polynomial(v).poly
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
        poly = poly + c * schubert_polynomial(v).poly
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
