"""Flag manifold products, Schubert polynomials, and the Monk oracle."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc.errors import SpaceMismatch, SupportOutsideStaircase
from flag_oracle import partition_to_osp
from schubcalc.flag import (
    FlagClass,
    FlagDescriptor,
    _times_variable,
    flag_integrate,
    flag_multiply,
)
from schubcalc.grassmann import GrassmannClass, GrassmannianDescriptor, gr_integrate
from schubcalc.indexing import (
    is_minimal_rep,
    perm_from_osp,
    perm_length,
    perm_pad,
    perm_strip,
)
from schubcalc.selftest import (
    SparsePolynomial,
    divided_difference,
    expand_in_schubert_basis,
    longest_perm,
    monk_multiply,
    partitions_in_box,
    perm_compose,
    perm_inverse,
    reduced_word,
    schubert_polynomial,
    staircase_monomial,
)

x1, x2, x3 = (SparsePolynomial.variable(i) for i in (1, 2, 3))
FL3 = FlagDescriptor((1, 1, 1))
FL4 = FlagDescriptor((1, 1, 1, 1))
FL22 = FlagDescriptor((2, 2))


def random_poly(rng, nvars=3, nterms=4, maxdeg=2):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[exp] = rng.randint(-3, 3)
    return SparsePolynomial(terms)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_divided_difference_examples():
    one = SparsePolynomial.one()
    assert divided_difference(1, x1) == one
    assert divided_difference(1, x1 * x2) == SparsePolynomial.zero()
    assert divided_difference(1, x1 ** 2) == x1 + x2


def test_divided_difference_square_and_braid():
    rng = random.Random(3)
    for _ in range(200):
        p = random_poly(rng)
        i = rng.randint(1, 3)
        assert divided_difference(i, divided_difference(i, p)).is_zero()
    for _ in range(200):
        p = random_poly(rng)
        i = rng.randint(1, 2)
        left = divided_difference(
            i, divided_difference(i + 1, divided_difference(i, p))
        )
        right = divided_difference(
            i + 1, divided_difference(i, divided_difference(i + 1, p))
        )
        assert left == right


def test_schubert_s3_table():
    one = SparsePolynomial.one()
    table = {
        (1, 2, 3): one,
        (2, 1, 3): x1,
        (1, 3, 2): x1 + x2,
        (2, 3, 1): x1 * x2,
        (3, 1, 2): x1 ** 2,
        (3, 2, 1): x1 ** 2 * x2,
    }
    for w, expected in table.items():
        assert schubert_polynomial(w) == expected, w


def test_schubert_stability_and_degree():
    assert schubert_polynomial((2, 1)) == schubert_polynomial((2, 1, 3, 4))
    assert schubert_polynomial((1, 2, 3, 4)) == SparsePolynomial.one()
    assert schubert_polynomial((4, 3, 2, 1)) == staircase_monomial(4)
    for w in all_perms(4):
        sp = schubert_polynomial(w)
        assert {sum(e) for e in sp.terms} == {perm_length(w)}
        assert all(c > 0 for c in sp.terms.values())


def test_schubert_reduced_word_independence():
    for w in all_perms(4):
        u = perm_compose(perm_inverse(w), longest_perm(4))
        results = set()
        for strategy in ("leftmost", "rightmost"):
            p = staircase_monomial(4)
            for i in reversed(reduced_word(u, strategy)):
                p = divided_difference(i, p)
            results.add(p)
        assert len(results) == 1, w
        assert results.pop() == schubert_polynomial(w)


def test_expand_examples():
    assert expand_in_schubert_basis(x1, 3) == {(2, 1, 3): 1}
    assert expand_in_schubert_basis(x1 ** 2 + x1 * x2, 3) == {
        (3, 1, 2): 1,
        (2, 3, 1): 1,
    }
    assert expand_in_schubert_basis(SparsePolynomial.zero(), 3) == {}
    with pytest.raises(SupportOutsideStaircase):
        expand_in_schubert_basis(x1 ** 3, 3)
    with pytest.raises(SupportOutsideStaircase):
        expand_in_schubert_basis(x3, 3)


def test_expand_roundtrip_s4():
    rng = random.Random(11)
    perms = all_perms(4)
    for _ in range(25):
        combo = {w: rng.randint(-5, 5) for w in rng.sample(perms, 4)}
        p = SparsePolynomial.zero()
        for w, c in combo.items():
            p = p + c * schubert_polynomial(w)
        got = expand_in_schubert_basis(p, 4)
        assert got == {w: c for w, c in combo.items() if c}


def test_flag_class_validation():
    with pytest.raises(ValueError):
        FlagClass(FL22, {(2, 1, 3, 4): 1})
    with pytest.raises(ValueError):
        FlagClass(FL3, {(1, 3): 1})
    with pytest.raises(SpaceMismatch):
        flag_multiply(FlagClass.unit(FL3), FlagClass.unit(FL4))
    with pytest.raises(ValueError):
        FlagDescriptor((2, 0))


def test_complex_dimension_is_the_sum_of_block_products():
    rng = random.Random(3)
    for _ in range(200):
        dims = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 12)))
        pairwise = sum(
            dims[i] * dims[j] for i in range(len(dims)) for j in range(i + 1, len(dims))
        )
        assert FlagDescriptor(dims).complex_dimension == pairwise, dims
    # one pass over the blocks; the pairwise sum took 0.67 s at n = 4000,
    # so about half an hour here
    n = 200_000
    start = time.perf_counter()
    assert FlagDescriptor((1,) * n).complex_dimension == n * (n - 1) // 2
    assert time.perf_counter() - start < 2.0


def test_flag_multiply_s3():
    s1 = FlagClass.basis(FL3, (2, 1, 3))
    s2 = FlagClass.basis(FL3, (1, 3, 2))
    prod = flag_multiply(s1, s2)
    assert prod.terms == {(2, 3, 1): 1, (3, 1, 2): 1}
    assert flag_multiply(FlagClass.unit(FL3), s1) == s1


def test_flag_integrate_s3():
    s1 = FlagClass.basis(FL3, (2, 1, 3))
    s2 = FlagClass.basis(FL3, (1, 3, 2))
    triple = flag_multiply(flag_multiply(s1, s2), s1)
    assert flag_integrate(triple) == 1
    assert flag_integrate(FlagClass.unit(FL3)) == 0
    # the point class is the dual of the unit: the longest minimal
    # representative
    assert FlagClass._dual_key(FL3, ()) == (3, 2, 1)
    assert FlagClass._dual_key(FL22, ()) == (3, 4, 1, 2)
    assert FlagClass._dual_key(FlagDescriptor((3,)), ()) == ()


def test_structure_constants_s4_sample():
    perms = all_perms(4)
    rng = random.Random(5)
    for _ in range(30):
        u, v = rng.choice(perms), rng.choice(perms)
        a = FlagClass.basis(FL4, u)
        b = FlagClass.basis(FL4, v)
        ab = flag_multiply(a, b)
        assert ab == flag_multiply(b, a)
        for w, c in ab.terms.items():
            assert c >= 0
            assert perm_length(w) == perm_length(u) + perm_length(v)


def test_monk_examples():
    s2 = FlagClass.basis(FL3, (1, 3, 2))
    got = monk_multiply(1, s2)
    assert got.terms == {(2, 3, 1): 1, (3, 1, 2): 1}
    unit = FlagClass.unit(FL3)
    assert monk_multiply(2, unit).terms == {(1, 3, 2): 1}
    with pytest.raises(ValueError):
        monk_multiply(1, FlagClass.unit(FL22))


def test_monk_agrees_with_flag_multiply():
    for space, group in ((FL3, all_perms(3)), (FL4, all_perms(4))):
        for r in space.boundaries:
            s_r = FlagClass.basis(
                space, perm_pad((*range(1, r), r + 1, r), space.n)
            )
            for w in group:
                a = FlagClass.basis(space, w)
                assert monk_multiply(r, a) == flag_multiply(s_r, a), (r, w)


def test_monk_step_reads_the_stripped_form():
    # x_i S_w from the stripped key equals the full-length step, stripped:
    # at n = 6, and at n = i as the transition step calls it
    for w in all_perms(6):
        for i in range(1, 7):
            for n in (6, i):
                full = _times_variable(i, {w: 1}, n)
                want = {perm_strip(u): c for u, c in full.items()}
                assert _times_variable(i, {perm_strip(w): 1}, n) == want, (w, i, n)


@pytest.mark.parametrize("space", [FlagDescriptor((1,) * 5), FlagDescriptor((2, 1, 2))])
def test_stripped_keys_sort_as_padded_keys(space):
    # output is sorted by (degree, key) before it is padded, so within a
    # degree the stripped keys must keep the order of the padded ones
    reps = [w for w in all_perms(space.n) if is_minimal_rep(w, space.dims)]
    for u in reps:
        for v in reps:
            if perm_length(u) == perm_length(v):
                assert (perm_strip(u) < perm_strip(v)) == (u < v), (u, v)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5)])
def test_grassmannian_dictionary(k, n):
    l = n - k
    gr = GrassmannianDescriptor(k, n)
    fl = FlagDescriptor((k, l))
    shapes = list(partitions_in_box(k, l))

    def lift(lam):
        return FlagClass.basis(fl, perm_from_osp(partition_to_osp(lam, k, l)))

    for lam in shapes:
        for mu in shapes:
            left = flag_multiply(lift(lam), lift(mu))
            right = GrassmannClass.basis(gr, lam) * GrassmannClass.basis(gr, mu)
            expected = FlagClass.zero(fl)
            for nu, c in right.terms.items():
                expected = expected + c * lift(nu)
            assert left == expected, (lam, mu)
            assert flag_integrate(left) == gr_integrate(right)


@given(st.sampled_from(all_perms(3)), st.sampled_from(all_perms(3)))
@settings(max_examples=36)
def test_flag_product_grading(u, v):
    prod = flag_multiply(
        FlagClass.basis(FL3, u), FlagClass.basis(FL3, v)
    )
    if perm_length(u) + perm_length(v) > FL3.complex_dimension:
        assert prod.is_zero()
