"""Grassmannian ring, duality, Chern classes, and degeneracy loci."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import schubcalc.grassmann as grassmann_module
from det_oracle import oracle_determinant
from lr_oracle import gr_multiply_by_pairs
from schubcalc.errors import (
    BoxOverflow,
    DegreeOutOfRange,
    DimensionMismatch,
    MissingChernDegree,
    SpaceMismatch,
)
from schubcalc.grassmann import (
    GrassmannClass,
    GrassmannianDescriptor,
    chern_class,
    degeneracy_count,
    giambelli,
    gr_integrate,
    gr_multiply,
    poincare_dual,
    tautological_chern_difference,
    thom_porteous,
)
from schubcalc.indexing import partition_contains, partition_size
from schubcalc.schur import _lr_product, ring_determinant
from schubcalc.selftest import partitions_in_box

GR24 = GrassmannianDescriptor(2, 4)
GR25 = GrassmannianDescriptor(2, 5)
GR36 = GrassmannianDescriptor(3, 6)
GR48 = GrassmannianDescriptor(4, 8)
GR510 = GrassmannianDescriptor(5, 10)


def basis(space, *parts):
    return GrassmannClass.basis(space, parts)


def random_class(space, rng):
    terms = {}
    shapes = list(partitions_in_box(space.k, space.l))
    for lam in rng.sample(shapes, k=min(3, len(shapes))):
        terms[lam] = rng.randint(-4, 4)
    return GrassmannClass(space, terms)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GrassmannianDescriptor(0, 4)
    with pytest.raises(ValueError):
        GrassmannianDescriptor(4, 4)
    assert GR24.l == 2
    assert GR36.complex_dimension == 9
    assert GrassmannClass._dual_key(GR25, ()) == (3, 3)


def test_box_enforced():
    with pytest.raises(BoxOverflow):
        GrassmannClass.basis(GR24, (3,))
    with pytest.raises(BoxOverflow):
        GrassmannClass.basis(GR24, (1, 1, 1))


def test_multiply_examples():
    assert basis(GR24, 1) * basis(GR24, 1) == basis(GR24, 2) + basis(GR24, 1, 1)
    assert (basis(GR24, 2) * basis(GR24, 1, 1)).is_zero()
    assert (basis(GR24, 2, 2) * basis(GR24, 1)).is_zero()


def signed_class(space, rng, nterms):
    shapes = rng.sample(list(partitions_in_box(space.k, space.l)), k=nterms)
    return GrassmannClass(space, {lam: rng.choice((-3, -2, -1, 1, 2, 3)) for lam in shapes})


def test_class_seeded_product_matches_the_pairwise_oracle():
    rng = random.Random(13)
    cases = []
    for space in (GR25, GR36, GR48, GR510):
        unit, zero = GrassmannClass.unit(space), GrassmannClass.zero(space)
        top = GrassmannClass.basis(space, GrassmannClass._dual_key(space, ()))
        many = signed_class(space, rng, 6)
        cases += [
            (unit, many), (zero, many), (unit, unit), (zero, zero),
            (basis(space, 1), many), (basis(space, 2, 1), many),
            # products with terms that leave the box
            (top, basis(space, 1)), (top, top - unit),
        ]
        for _ in range(15):
            a = signed_class(space, rng, rng.randint(1, 6))
            b = signed_class(space, rng, rng.randint(1, 6))
            cases.append((a, b))
    for a, b in cases:
        want = gr_multiply_by_pairs(a, b)
        assert gr_multiply(a, b) == want, (a, b)
        assert gr_multiply(b, a) == want, (a, b)
    # partial tableaux from different terms cancel: s21 drops out
    assert (basis(GR36, 2) - basis(GR36, 1, 1)) * basis(GR36, 1) == (
        basis(GR36, 3) - basis(GR36, 1, 1, 1)
    )


def test_a_bounded_product_is_the_full_product_inside_its_bound():
    # _lr_product(a, b, within) keeps the terms of a * b inside within, on
    # signed classes in several boxes; within runs over every shape of the
    # box, the empty one and the full box among them, and the class's
    # _product_within(b, top) bounds by the dual of top
    rng = random.Random(23)
    for space in (GR24, GR25, GR36, GrassmannianDescriptor(3, 7)):
        shapes = list(partitions_in_box(space.k, space.l))
        for _ in range(12):
            a = signed_class(space, rng, rng.randint(1, 5))
            b = signed_class(space, rng, rng.randint(1, 5))
            full = gr_multiply_by_pairs(a, b).terms
            assert b._product_within(a, None).terms == full, (a, b)
            for within in shapes:
                want = {nu: c for nu, c in full.items() if partition_contains(within, nu)}
                got = {nu: c for nu, c in _lr_product(a, b, within).items() if c}
                assert got == want, (a, b, within)
                top = GrassmannClass._dual_key(space, within)
                assert b._product_within(a, top).terms == want, (a, b, within)


def test_space_mismatch():
    with pytest.raises(SpaceMismatch):
        gr_multiply(basis(GR24, 1), basis(GR25, 1))


def test_integrate_classic_values():
    assert gr_integrate(basis(GrassmannianDescriptor(4, 8), 2, 2) ** 4) == 6
    assert gr_integrate(basis(GR24, 1) ** 4) == 2
    # degree 8 exceeds the dimension, so this power is identically zero
    assert gr_integrate(basis(GR24, 1, 1) ** 4) == 0
    assert gr_integrate(basis(GR24, 1, 1) ** 2) == 1


def test_integrate_off_degree():
    assert gr_integrate(GrassmannClass.unit(GR24)) == 0
    assert gr_integrate(basis(GR24, 1)) == 0


def test_poincare_dual_examples():
    assert poincare_dual((2, 2), GR24) == ()
    assert poincare_dual((1,), GR24) == (2, 1)
    assert poincare_dual((2,), GR24) == (2,)
    assert gr_integrate(basis(GR24, 2) * basis(GR24, 2)) == 1
    with pytest.raises(BoxOverflow):
        poincare_dual((5,), GR24)


def test_duality_diagonal_exhaustive():
    for space in (GR24, GR25, GR36):
        box = list(partitions_in_box(space.k, space.l))
        for lam in box:
            dual = poincare_dual(lam, space)
            assert partition_size(dual) == space.complex_dimension - partition_size(lam)
            for mu in box:
                if partition_size(mu) != partition_size(dual):
                    continue
                pairing = gr_integrate(basis(space, *lam) * basis(space, *mu))
                assert pairing == (1 if mu == dual else 0), (space, lam, mu)


def test_chern_classes():
    assert chern_class("quot", 1, GR24) == basis(GR24, 1)
    assert chern_class("sub", 0, GR24) == GrassmannClass.unit(GR24)
    assert chern_class("sub", 2, GR24) == basis(GR24, 1, 1)
    assert chern_class("sub", 1, GR24) == -1 * basis(GR24, 1)
    with pytest.raises(DegreeOutOfRange):
        chern_class("sub", 3, GR24)
    with pytest.raises(DegreeOutOfRange):
        chern_class("quot", -1, GR24)
    with pytest.raises(ValueError):
        chern_class("tangent", 1, GR24)


def test_whitney_sum():
    for space in (GR24, GR25, GR36):
        for p in range(1, space.n + 1):
            acc = GrassmannClass.zero(space)
            for i in range(0, min(p, space.k) + 1):
                j = p - i
                if j > space.l:
                    continue
                acc = acc + chern_class("sub", i, space) * chern_class("quot", j, space)
            assert acc.is_zero(), (space, p)


def test_giambelli_examples():
    assert giambelli((1, 1), GR24) == basis(GR24, 1, 1)
    assert giambelli((2,), GR25) == basis(GR25, 2)
    assert giambelli((2, 2), GR24) == basis(GR24, 2, 2)
    assert giambelli((), GR24) == GrassmannClass.unit(GR24)


def test_giambelli_all_3x3():
    count = 0
    for lam in partitions_in_box(3, 3):
        assert giambelli(lam, GR36) == basis(GR36, *lam), lam
        count += 1
    assert count == 20


def test_porteous_example():
    series = tautological_chern_difference(GR24, 3)
    cls = thom_porteous(2, 2, 1, series)
    assert cls == 2 * basis(GR24, 1)
    assert gr_integrate(cls ** 4) == 32


def test_porteous_trivial_cases():
    series = tautological_chern_difference(GR24, 2)
    assert thom_porteous(2, 2, 2, series) == GrassmannClass.unit(GR24)
    one_by_one = thom_porteous(1, 1, 0, series)
    assert one_by_one == series[1]
    with pytest.raises(MissingChernDegree):
        thom_porteous(3, 3, 1, series[:2])
    with pytest.raises(ValueError):
        thom_porteous(2, 2, 3, series)


def test_chern_difference_series():
    series = tautological_chern_difference(GR24, 4)
    assert series[0] == GrassmannClass.unit(GR24)
    assert series[1] == 2 * basis(GR24, 1)
    for space in (GR24, GR25, GR36):
        top = 2 * space.l + 1
        series = tautological_chern_difference(space, top)
        assert len(series) == top + 1
        for d in range(top + 1):
            # c(Q - S) * c(S) must reproduce c(Q) degree by degree
            conv = GrassmannClass.zero(space)
            for i in range(max(0, d - space.k), d + 1):
                conv = conv + series[i] * chern_class("sub", d - i, space)
            expect = chern_class("quot", d, space) if d <= space.l else GrassmannClass.zero(space)
            assert conv == expect, (space, d)


def test_determinants_match_column_choice_oracle(monkeypatch):
    sizes = []

    def checked(mat, one):
        got = ring_determinant(mat, one)
        assert got == oracle_determinant(mat, one)
        sizes.append(len(mat))
        return got

    monkeypatch.setattr(grassmann_module, "ring_determinant", checked)
    for space in (GR36, GR48):
        for lam in partitions_in_box(space.k, space.l):
            assert giambelli(lam, space) == GrassmannClass.basis(space, lam)
        series = tautological_chern_difference(space, 11)
        for e in range(7):
            for f in range(7):
                for rho in range(min(e, f) + 1):
                    thom_porteous(e, f, rho, series)
    assert max(sizes) == 6


def test_degeneracy_count():
    assert degeneracy_count(GR24, 2, 2, 1, 4) == 32
    with pytest.raises(DimensionMismatch):
        degeneracy_count(GR24, 2, 2, 1, 3)
    # vacuous rank bound: the unit class, which integrates to zero here
    assert degeneracy_count(GR24, 2, 2, 2, 7) == 0


def test_ring_axioms_random():
    rng = random.Random(7)
    for space in (GR24, GR25):
        for _ in range(60):
            a, b, c = (random_class(space, rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * GrassmannClass.unit(space) == a
            assert a * (b + c) == a * b + a * c


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=25)
def test_grading(i, j):
    shapes_i = [l for l in partitions_in_box(2, 3) if partition_size(l) == i]
    shapes_j = [l for l in partitions_in_box(2, 3) if partition_size(l) == j]
    for lam in shapes_i:
        for mu in shapes_j:
            prod = basis(GR25, *lam) * basis(GR25, *mu)
            for nu, c in prod.terms.items():
                assert partition_size(nu) == i + j
                assert c > 0
