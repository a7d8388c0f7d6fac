"""Halving map, doubled products, and the real/quaternionic problem reductions."""

import itertools
from fractions import Fraction

import pytest

from schubcalc.combination import decimal_text
from schubcalc.errors import DimensionMismatch, NotADoubleIndex, SpaceMismatch
from schubcalc.flag import FlagClass, FlagDescriptor, flag_multiply
from schubcalc.grassmann import GrassmannClass, GrassmannianDescriptor
from schubcalc.halving import (
    HalvingClass,
    HalvingSpaceDescriptor,
    SchubertProblem,
    kappa,
    kappa_char_class,
    quaternionic_count,
    real_degeneracy_lower_bound,
    real_double_multiply,
    real_lower_bound,
    solve,
)
from schubcalc.indexing import partition_double, perm_double
from schubcalc.selftest import partitions_in_box
from schubcalc.serialize import parse_problem

GR8R16 = HalvingSpaceDescriptor.real_even_grassmannian(8, 16)
GR4R8 = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
GR2H4 = HalvingSpaceDescriptor.quaternionic_grassmannian(2, 4)
FL222R6 = HalvingSpaceDescriptor.real_even_flag((2, 2, 2))
OCT = HalvingSpaceDescriptor.octonionic_flag()


def test_descriptor_constructors():
    assert GR4R8.fixed_point == GrassmannianDescriptor(2, 4)
    assert GR8R16.fixed_point == GrassmannianDescriptor(4, 8)
    assert FL222R6.fixed_point == FlagDescriptor((1, 1, 1))
    assert OCT.fixed_point == FlagDescriptor((1, 1, 1))
    with pytest.raises(ValueError):
        HalvingSpaceDescriptor.real_even_grassmannian(3, 8)
    with pytest.raises(ValueError):
        HalvingSpaceDescriptor.real_even_flag((2, 1))
    with pytest.raises(ValueError):
        HalvingSpaceDescriptor("octonionic_flag", FlagDescriptor((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        HalvingSpaceDescriptor("elliptic", GrassmannianDescriptor(2, 4))


def test_kappa_real_grassmannian():
    a = HalvingClass.basis(GR8R16, partition_double((2, 2)))
    img = kappa(a)
    assert img == 16 * GrassmannClass.basis(GrassmannianDescriptor(4, 8), (2, 2))
    unit_img = kappa(HalvingClass.unit(GR4R8))
    assert unit_img == GrassmannClass.unit(GrassmannianDescriptor(2, 4))


def test_kappa_rejects_non_doubles():
    with pytest.raises(NotADoubleIndex):
        kappa(HalvingClass.basis(GR4R8, (2, 1)))
    with pytest.raises(NotADoubleIndex):
        kappa(HalvingClass.basis(GR4R8, (2,)))


def test_kappa_quaternionic():
    a = HalvingClass.basis(GR2H4, (1,))
    assert kappa(a) == 2 * GrassmannClass.basis(GrassmannianDescriptor(2, 4), (1,))
    b = HalvingClass.basis(GR2H4, (2, 1))
    assert kappa(b) == 8 * GrassmannClass.basis(GrassmannianDescriptor(2, 4), (2, 1))


def test_kappa_octonionic_two_steps():
    a = HalvingClass.basis(OCT, (2, 1, 3))
    quat = kappa(a)
    assert isinstance(quat, HalvingClass)
    assert quat.space.kind == "quaternionic_flag"
    assert quat.coefficient((2, 1, 3)) == 1
    complex_img = kappa(quat)
    assert complex_img == 2 * FlagClass.basis(
        FlagDescriptor((1, 1, 1)), (2, 1, 3)
    )


def test_kappa_fractional_rejection():
    a = HalvingClass(GR4R8, {partition_double((1,)): Fraction(1, 3)})
    with pytest.raises(ValueError):
        kappa(a)


def test_real_double_multiply_examples():
    d1 = HalvingClass.basis(GR4R8, partition_double((1,)))
    prod = real_double_multiply(d1, d1)
    assert prod.coefficient(partition_double((2,))) == 1
    assert prod.coefficient(partition_double((1, 1))) == 1
    assert len(prod.terms) == 2
    unit = HalvingClass.unit(GR4R8)
    assert real_double_multiply(unit, d1) == d1
    box = HalvingClass.basis(GR4R8, partition_double((2, 2)))
    assert real_double_multiply(box, d1).is_zero()


def _multi_term(space, keys):
    weights = (Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 7))
    return HalvingClass(space, dict(zip(keys, weights)))


@pytest.mark.parametrize(
    "space,left,right",
    [
        (
            GR4R8,
            [partition_double(lam) for lam in [(), (1,), (2, 1)]],
            [partition_double(lam) for lam in [(1,), (2,), (1, 1)]],
        ),
        (
            FL222R6,
            [perm_double((2, 1, 3)), perm_double((1, 3, 2)), perm_double((1, 2, 3))],
            [perm_double((2, 3, 1)), perm_double((3, 1, 2)), perm_double((2, 1, 3))],
        ),
    ],
)
def test_real_double_multiply_is_bilinear(space, left, right):
    a, b = _multi_term(space, left), _multi_term(space, right)
    pairs = HalvingClass.zero(space)
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            pairs += (ca * cb) * real_double_multiply(
                HalvingClass.basis(space, ka), HalvingClass.basis(space, kb)
            )
    whole = real_double_multiply(a, b)
    assert whole == pairs
    assert whole == real_double_multiply(b, a)
    assert any(c.denominator != 1 for c in whole.terms.values())


def test_kappa_is_ring_homomorphism_grassmann():
    fp = GR4R8.fixed_point
    shapes = list(partitions_in_box(fp.k, fp.l))
    for lam, mu in itertools.product(shapes, shapes):
        a = HalvingClass.basis(GR4R8, partition_double(lam))
        b = HalvingClass.basis(GR4R8, partition_double(mu))
        assert kappa(real_double_multiply(a, b)) == kappa(a) * kappa(b), (lam, mu)


def test_kappa_is_ring_homomorphism_flag():
    perms = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    fl = FL222R6.fixed_point
    for u, v in itertools.product(perms, perms):
        a = HalvingClass.basis(FL222R6, perm_double(u))
        b = HalvingClass.basis(FL222R6, perm_double(v))
        left = kappa(real_double_multiply(a, b))
        right = flag_multiply(kappa(a), kappa(b))
        assert left == right, (u, v)


def test_flag_basis_pads_a_short_permutation():
    # as FlagClass.basis does: a permutation shorter than n is padded with
    # fixed points, stands for its coset, and is stored without them
    quat = HalvingSpaceDescriptor.quaternionic_flag((1, 2, 1))
    assert HalvingClass.basis(quat, (2, 1)).terms == {(2, 1): 1}
    assert HalvingClass.basis(quat, (2, 1)) == HalvingClass.basis(quat, (2, 3, 1, 4))
    short = HalvingClass.basis(FL222R6, (4, 3, 2, 1))
    assert short == HalvingClass.basis(FL222R6, (3, 4, 1, 2, 5, 6))
    assert short.terms == {(3, 4, 1, 2): 1}


def test_real_lower_bound_paper_instances():
    problem = SchubertProblem(GR8R16, (((4, 4, 4, 4), 4),))
    assert real_lower_bound(problem) == 6
    problem = SchubertProblem(GR4R8, (((2, 2), 4),))
    assert real_lower_bound(problem) == 2
    full_box = partition_double((2, 2))
    assert real_lower_bound(SchubertProblem(GR4R8, ((full_box, 1),))) == 1


def test_real_lower_bound_validation():
    with pytest.raises(NotADoubleIndex):
        real_lower_bound(SchubertProblem(GR4R8, (((2, 1), 2),)))
    with pytest.raises(DimensionMismatch):
        real_lower_bound(SchubertProblem(GR4R8, (((2, 2), 3),)))
    with pytest.raises(ValueError):
        real_lower_bound(SchubertProblem(GR2H4, (((1,), 4),)))


def test_quaternionic_count_examples():
    problem = SchubertProblem(GR2H4, (((1,), 4),))
    assert quaternionic_count(problem) == 2
    problem = SchubertProblem(GR2H4, (((2, 2), 1),))
    assert quaternionic_count(problem) == 1
    problem = SchubertProblem(GR2H4, (((2,), 2),))
    assert quaternionic_count(problem) == 1
    with pytest.raises(DimensionMismatch):
        quaternionic_count(SchubertProblem(GR2H4, (((1,), 3),)))
    with pytest.raises(ValueError):
        quaternionic_count(SchubertProblem(GR4R8, (((2, 2), 4),)))


def test_dimension_mismatch_names_its_terms_by_kind():
    # complex spaces count their own dimension; halving spaces that of the
    # fixed point, and real even ones count halved conditions
    cases = [
        ({"type": "complex_grassmannian", "k": 2, "n": 4}, [1], 3,
         "conditions fill degree 3, but Gr(2, C^4) has dimension 4"),
        ({"type": "complex_flag", "dims": [1, 1, 1]}, [2, 1, 3], 2,
         "conditions fill degree 2, but Fl(1^3)(C^3) has dimension 3"),
        ({"type": "real_even_grassmannian", "k": 4, "n": 8}, [2, 2], 3,
         "halved conditions fill degree 3, but Gr(4, R^8) has fixed-point dimension 4"),
        ({"type": "real_even_flag", "dims": [2, 2, 2]}, [3, 4, 1, 2, 5, 6], 2,
         "halved conditions fill degree 2, but Fl(2^3)(R^6) has fixed-point dimension 3"),
        ({"type": "quaternionic_grassmannian", "k": 2, "n": 4}, [1], 3,
         "conditions fill degree 3, but Gr(2, H^4) has fixed-point dimension 4"),
        ({"type": "octonionic_flag"}, [2, 1, 3], 1,
         "conditions fill degree 1, but Fl(O^3) has fixed-point dimension 3"),
    ]
    # integers past the str() digit limit are written whole
    t, big = decimal_text(10 ** 3000), decimal_text(2 * 10 ** 3000)
    square = decimal_text(10 ** 6000)
    cases += [
        ({"type": "complex_grassmannian", "k": 10 ** 3000, "n": 2 * 10 ** 3000}, [1], 1,
         f"conditions fill degree 1, but Gr({t}, C^{big}) has dimension {square}"),
        ({"type": "quaternionic_grassmannian", "k": 10 ** 3000, "n": 2 * 10 ** 3000}, [1], 1,
         f"conditions fill degree 1, but Gr({t}, H^{big}) has fixed-point dimension {square}"),
        ({"type": "real_even_grassmannian", "k": 2 * 10 ** 3000, "n": 4 * 10 ** 3000},
         [2, 2], 1,
         f"halved conditions fill degree 1, but Gr({big}, R^{decimal_text(4 * 10 ** 3000)}) "
         f"has fixed-point dimension {square}"),
        ({"type": "complex_grassmannian", "k": 1, "n": 10 ** 2001}, [10 ** 2000], 10 ** 2500,
         f"conditions fill degree {decimal_text(10 ** 4500)}, but "
         f"Gr(1, C^{decimal_text(10 ** 2001)}) has dimension {decimal_text(10 ** 2001 - 1)}"),
    ]
    for space, index, count, message in cases:
        problem = {"space": space, "conditions": [{"index": index, "count": count}]}
        with pytest.raises(DimensionMismatch) as exc:
            solve(parse_problem(problem))
        assert str(exc.value) == message


def test_octonionic_count_through_kappa():
    # transport an octonionic problem to the quaternionic three-step flag,
    # then count: complete flags in C^3 have a unique top class
    w0 = (3, 2, 1)
    quat_space = HalvingSpaceDescriptor.quaternionic_flag((1, 1, 1))
    problem = SchubertProblem(quat_space, ((w0, 1),))
    assert quaternionic_count(problem) == 1
    s1, s2 = (2, 1, 3), (1, 3, 2)
    problem = SchubertProblem(quat_space, ((s1, 2), (s2, 1)))
    assert quaternionic_count(problem) == 1


def test_real_lower_bound_flag_space():
    # four doubled length-1 conditions on the real (2,2,2) flag: the halved
    # problem multiplies four degree-1 classes in Fl(C^3), total degree 4
    # exceeds dimension 3, so a dimension mismatch is the right outcome
    du = perm_double((2, 1, 3))
    with pytest.raises(DimensionMismatch):
        real_lower_bound(SchubertProblem(FL222R6, ((du, 4),)))
    # a filling choice: s1, s2, s1 with total length 3
    dv = perm_double((1, 3, 2))
    got = real_lower_bound(SchubertProblem(FL222R6, ((du, 2), (dv, 1))))
    assert got == 1


def test_degeneracy_lower_bound():
    assert real_degeneracy_lower_bound(GR4R8, 4) == 32
    with pytest.raises(DimensionMismatch):
        real_degeneracy_lower_bound(GR4R8, 3)
    # the corank rule problem files are read by, with the same messages
    gr6r8 = HalvingSpaceDescriptor.real_even_grassmannian(6, 8)
    for space, corank, message in (
        (GR2H4, 2, "corank conditions need a real even Grassmannian"),
        (GrassmannianDescriptor(2, 4), 2, "corank conditions need a real even Grassmannian"),
        (FL222R6, 2, "corank conditions need a real even Grassmannian"),
        (GR4R8, 3, "'corank' must be a positive even integer"),
        (GR4R8, True, "'corank' must be a positive even integer"),
        (GR4R8, 6, "corank 6 exceeds the bundle rank 4 of Gr(4, R^8)"),
        (gr6r8, 2, "corank 2 leaves rank 4, above n-k = 2 on Gr(6, R^8)"),
    ):
        with pytest.raises(ValueError) as exc:
            real_degeneracy_lower_bound(space, 4, corank=corank)
        assert str(exc.value) == message, (space, corank)


def test_kappa_char_class_pattern():
    cp5 = HalvingSpaceDescriptor.real_even_grassmannian(2, 12)
    fp = cp5.fixed_point
    assert fp == GrassmannianDescriptor(1, 6)
    p1 = kappa_char_class(cp5, 1)
    for i in range(1, 6):
        expect = ((-2) ** i) * GrassmannClass.basis(fp, (i,))
        assert p1 ** i == expect, i
    assert kappa_char_class(cp5, 0) == GrassmannClass.unit(fp)
    q1 = kappa_char_class(GR4R8, 1, bundle=2)
    assert q1 == 2 * GrassmannClass.basis(GrassmannianDescriptor(2, 4), (1,))
    with pytest.raises(ValueError):
        kappa_char_class(GR2H4, 1)
    with pytest.raises(ValueError):
        kappa_char_class(cp5, 1, bundle=3)


def test_pontryagin_square_on_gr4r8():
    p1 = kappa_char_class(GR4R8, 1)
    fp = GR4R8.fixed_point
    c1 = GrassmannClass(fp, {(1,): -1})
    assert p1 ** 2 == 4 * (c1 * c1)


def test_halving_class_arithmetic():
    a = HalvingClass.basis(GR4R8, (2, 2))
    b = HalvingClass.basis(GR4R8, (4, 4))
    s = a + b - a
    assert s == b
    assert (Fraction(1, 2) * a).coefficient((2, 2)) == Fraction(1, 2)
    with pytest.raises(SpaceMismatch):
        a + HalvingClass.unit(GR8R16)
    with pytest.raises(ValueError):
        HalvingClass.basis(GR4R8, (5,))
    with pytest.raises(ValueError):
        real_double_multiply(
            HalvingClass.basis(GR2H4, (1,)), HalvingClass.basis(GR2H4, (1,))
        )
