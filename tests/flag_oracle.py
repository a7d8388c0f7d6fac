"""The polynomial flag product, kept as a test oracle.

It multiplies the Schubert polynomials of the two factors term by term,
expands each product in the Schubert basis of a symmetric group S_m large
enough to hold its monomials (triangular elimination on the smallest
monomial), and drops the labels outside S_n, which vanish in H*(Fl_n).
This was the product kernel before `schubcalc.flag.flag_multiply` moved to
Monk's rule inside S_n; the two share only `schubert_polynomial`.
"""

from schubcalc.flag import FlagClass, schubert_polynomial
from schubcalc.indexing import is_minimal_rep, perm_pad, perm_strip
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
