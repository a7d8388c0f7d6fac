"""The transition-formula flag product against two oracles.

`flag_multiply` works inside S_n, one Monk step per node of each term's
transition tree. The oracles in `flag_oracle.py` multiply Schubert
polynomials and expand the product in a larger symmetric group, or apply
the cheaper factor's x-monomials one variable at a time. All three must give
the same class.
"""

import itertools
import random
import sys

import pytest

from schubcalc.flag import (
    FlagClass,
    FlagDescriptor,
    _times_variable,
    _transition,
    flag_integrate,
    flag_multiply,
)
from schubcalc.indexing import is_minimal_rep, perm_length, perm_pad, perm_strip
from schubcalc.selftest import (
    SparsePolynomial,
    expand_in_schubert_basis,
    monk_multiply,
    schubert_polynomial,
)

from flag_oracle import monomial_product, polynomial_product


def representatives(space):
    return [
        w for w in itertools.permutations(range(1, space.n + 1))
        if is_minimal_rep(w, space.dims)
    ]


@pytest.mark.parametrize(
    "dims", [(1, 1, 1, 1), (2, 2), (2, 1, 2), (1, 2, 2), (1, 1, 2, 2)]
)
def test_every_basis_pair_matches_the_oracle(dims):
    space = FlagDescriptor(dims)
    basis = [FlagClass.basis(space, w) for w in representatives(space)]
    for i, a in enumerate(basis):
        for b in basis[i:]:
            want = polynomial_product(a, b)
            assert monomial_product(a, b) == want, (a, b)
            assert flag_multiply(a, b) == want, (a, b)
            assert flag_multiply(b, a) == want, (b, a)


def random_class(rng, space, reps, terms, max_length):
    pool = [w for w in reps if perm_length(w) <= max_length]
    out = {}
    for w in rng.sample(pool, min(terms, len(pool))):
        out[w] = rng.choice([-3, -2, -1, 1, 2, 3])
    return FlagClass(space, out)


@pytest.mark.parametrize(
    "dims",
    [(1, 1, 1, 1, 1), (1,) * 6, (1,) * 7, (2, 1, 3), (1, 2, 1, 2), (3, 4), (2, 2, 3)],
)
def test_random_multiterm_products_match_the_oracle(dims):
    space = FlagDescriptor(dims)
    reps = representatives(space)
    rng = random.Random(f"flag-monk/{dims}")
    for _ in range(6):
        a = random_class(rng, space, reps, 3, space.complex_dimension)
        b = random_class(rng, space, reps, 2, 4)
        want = polynomial_product(a, b)
        assert monomial_product(a, b) == want, (a, b)
        assert flag_multiply(a, b) == want, (a, b)
        assert flag_multiply(b, a) == want, (b, a)


def test_variable_times_schubert_class_in_s5():
    """x_i S_w for every w in S_5, against the expanded polynomial product."""
    n = 5
    for w in itertools.permutations(range(1, n + 1)):
        poly = schubert_polynomial(w)
        for i in range(1, n):
            product = SparsePolynomial.variable(i) * poly
            want = {}
            for v, c in expand_in_schubert_basis(product, n + 1).items():
                v = perm_strip(v)
                if len(v) <= n:
                    want[perm_pad(v, n)] = c
            assert _times_variable(i, {w: 1}, n) == want, (i, w)


def test_transition_step_against_schubert_polynomials():
    """S_w = x_r S_v + the sum of S_u over the moves u, for every w != id in
    S_2..S_6, with every Schubert polynomial built by divided differences."""
    for n in range(2, 7):
        for w in itertools.permutations(range(1, n + 1)):
            if w[-1] == n:
                continue  # the identity, or a w of a smaller S_n
            r, v, moves = _transition(w)
            got = SparsePolynomial.variable(r) * schubert_polynomial(v)
            for u in moves:
                got = got + schubert_polynomial(u)
            assert got == schubert_polynomial(w), (w, r, v, moves)


def test_unit_returns_the_other_factor():
    space = FlagDescriptor((1, 2, 2))
    a = FlagClass(space, {(2, 1, 4, 3, 5): 2, (1, 3, 5, 2, 4): -1})
    unit = FlagClass.unit(space)
    assert flag_multiply(unit, a) is a
    assert flag_multiply(a, unit) is a


def test_transition_walk_uses_no_recursion():
    """The 55-node transition chain of the longest element of S_11, on Fl(1^12),
    under a recursion limit 40 frames above the caller's depth."""
    n = 12
    space = FlagDescriptor((1,) * n)
    cheap = FlagClass.basis(space, perm_pad(tuple(range(11, 0, -1)), n))
    other = FlagClass(
        space,
        {
            perm_pad((*range(1, 11), 12, 11), n): 1,
            perm_pad((*range(1, 10), 11, 10), n): 2,
        },
    )
    want = monomial_product(cheap, other)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = flag_multiply(cheap, other)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


@pytest.mark.parametrize("n", [7, 8])
def test_divisor_volume_chain_matches_monk(n):
    """D_1 D_2^2 ... D_{n-1}^{n-1}, step by step, against monk_multiply."""
    space = FlagDescriptor((1,) * n)
    by_kernel = by_monk = FlagClass.unit(space)
    for r in range(1, n):
        divisor = FlagClass.basis(
            space, perm_pad((*range(1, r), r + 1, r), n)
        )
        for _ in range(r):
            by_kernel = flag_multiply(by_kernel, divisor)
            by_monk = monk_multiply(r, by_monk)
            assert by_kernel == by_monk, (r, len(by_monk.terms))
    assert flag_integrate(by_kernel) == 1
