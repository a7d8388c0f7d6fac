"""Ten headline checks, one per published capability, each with a time budget.

Every test prints one PASS line with its measured runtime. The suite covers
the four classic counts, the rank-drop pipeline, the tableau oracle, ring
axioms and duality, the two determinantal identities, flag consistency, and
the multiplicativity of the halving map.
"""

import itertools
import random
import time

from schubcalc.errors import DimensionMismatch
from flag_oracle import partition_to_osp
from lr_oracle import partitions_of
from schubcalc.flag import FlagClass, FlagDescriptor, flag_integrate, flag_multiply
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
)
from schubcalc.indexing import (
    partition_conjugate,
    partition_double,
    perm_double,
    perm_from_osp,
    perm_strip,
)
from schubcalc.schur import SchurExpansion, schur_multiply
from schubcalc.selftest import (
    jacobi_trudi,
    monk_multiply,
    oracle_cache_clear,
    oracle_schur_polynomial,
    partitions_in_box,
    perm_swap_positions,
)


class _Budget:
    """Context manager that measures a test body and enforces its budget."""

    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"criterion {self.number}: FAIL ({elapsed:.2f}s) {self.label}")
            return False
        assert elapsed < self.seconds, (
            f"criterion {self.number} took {elapsed:.2f}s, budget {self.seconds}s"
        )
        print(
            f"criterion {self.number}: PASS "
            f"({elapsed:.2f}s of {self.seconds}s) {self.label}"
        )
        return False


def test_criterion_01_box_conditions_on_gr48():
    with _Budget(1, "four 2x2-box conditions on Gr(4, C^8) give 6", 1.0):
        space = GrassmannianDescriptor(4, 8)
        cls = GrassmannClass.basis(space, (2, 2))
        assert gr_integrate(cls ** 4) == 6


def test_criterion_02_four_lines_complex_and_real():
    with _Budget(2, "four lines in P^3: complex signed count 2, real bound 2", 1.0):
        space = GrassmannianDescriptor(2, 4)
        sigma1 = GrassmannClass.basis(space, (1,))
        assert gr_integrate(sigma1 ** 4) == 2
        real = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
        problem = SchubertProblem(real, ((partition_double((1,)), 4),))
        assert partition_double((1,)) == (2, 2)
        assert real_lower_bound(problem) == 2


def test_criterion_03_real_bound_on_gr8r16():
    with _Budget(3, "four doubled box conditions on Gr(8, R^16) give 6", 1.0):
        real = HalvingSpaceDescriptor.real_even_grassmannian(8, 16)
        doubled = partition_double((2, 2))
        assert doubled == (4, 4, 4, 4)
        problem = SchubertProblem(real, ((doubled, 4),))
        assert real_lower_bound(problem) == 6


def test_criterion_04_quaternionic_four_lines():
    with _Budget(4, "quaternionic lines meeting four lines give 2", 1.0):
        quat = HalvingSpaceDescriptor.quaternionic_grassmannian(2, 4)
        problem = SchubertProblem(quat, (((1,), 4),))
        assert quaternionic_count(problem) == 2


def test_criterion_05_rank_drop_pipeline():
    with _Budget(5, "rank-drop locus 2*s[1], count 32, real bound 32", 1.0):
        space = GrassmannianDescriptor(2, 4)
        series = tautological_chern_difference(space, 1)
        locus = thom_porteous(2, 2, 1, series)
        assert locus == 2 * GrassmannClass.basis(space, (1,))
        assert degeneracy_count(space, 2, 2, 1, 4) == 32
        real = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
        assert real_degeneracy_lower_bound(real, 4, corank=2) == 32


def _verify_against_oracle(lam, mu, nvars):
    """Full verification of one product against the tableau polynomials.

    The recombination at `nvars` variables pins every coefficient whose
    shape has at most `nvars` rows. The remaining shapes all have at most
    `nvars` columns (a shape with more than `nvars` of each would need more
    boxes than the product carries), and are pinned by the transposed
    product, which the sweep verifies at its own turn; the relabeling
    assertion here ties the two expansions together.
    """
    p = schur_multiply(SchurExpansion.basis(lam), SchurExpansion.basis(mu))
    q = schur_multiply(SchurExpansion.basis(mu), SchurExpansion.basis(lam))
    assert p == q, f"product of {lam} and {mu} is not symmetric"

    left = oracle_schur_polynomial(lam, nvars) * oracle_schur_polynomial(mu, nvars)
    acc = left * 0
    for nu, c in p.terms.items():
        if len(nu) <= nvars:
            acc = acc + c * oracle_schur_polynomial(nu, nvars)
    assert acc == left, f"product of {lam} and {mu} disagrees with the oracle"

    flipped = schur_multiply(
        SchurExpansion.basis(partition_conjugate(lam)),
        SchurExpansion.basis(partition_conjugate(mu)),
    )
    assert flipped.terms == {
        partition_conjugate(nu): c for nu, c in p.terms.items()
    }, f"conjugating {lam} and {mu} does not transpose the expansion"


def test_criterion_06_oracle_equivalence():
    with _Budget(6, "products of all shapes of size <= 5 match the oracle", 60.0):
        nvars = 6
        small = [lam for size in range(6) for lam in partitions_of(size)]
        six = list(partitions_of(6))
        pairs = [
            (lam, mu) for i, lam in enumerate(small) for mu in small[i:]
        ] + [(lam, mu) for lam in small for mu in six]
        pairs.sort(key=lambda p: sum(p[0]) + sum(p[1]))

        identities = 0
        for total, block in itertools.groupby(
            pairs, key=lambda p: sum(p[0]) + sum(p[1])
        ):
            assert total <= 2 * nvars - 1, "conjugation no longer covers all rows"
            for lam, mu in block:
                _verify_against_oracle(lam, mu, nvars)
                identities += 1 if lam == mu else 2
            oracle_cache_clear()
        assert identities == 779
        assert identities >= 400


def test_criterion_07_ring_axioms_and_duality():
    with _Budget(7, "ring axioms on 500 random triples; duality diagonal", 60.0):
        rng = random.Random(20250819)
        spaces = [GrassmannianDescriptor(2, 5), GrassmannianDescriptor(3, 6)]

        def random_class(space):
            shapes = list(partitions_in_box(space.k, space.l))
            picked = rng.sample(shapes, rng.randint(1, 3))
            return GrassmannClass(
                space, {lam: rng.randint(-3, 3) for lam in picked}
            )

        for i in range(500):
            space = spaces[i % 2]
            a, b, c = (random_class(space) for _ in range(3))
            assert gr_multiply(a, b) == gr_multiply(b, a)
            assert gr_multiply(gr_multiply(a, b), c) == gr_multiply(
                a, gr_multiply(b, c)
            )

        space = GrassmannianDescriptor(3, 6)
        shapes = list(partitions_in_box(3, 3))
        for lam in shapes:
            for mu in shapes:
                if sum(lam) + sum(mu) != space.complex_dimension:
                    continue
                pairing = gr_integrate(
                    gr_multiply(
                        GrassmannClass.basis(space, lam),
                        GrassmannClass.basis(space, mu),
                    )
                )
                expected = 1 if mu == poincare_dual(lam, space) else 0
                assert pairing == expected, (lam, mu)


def test_criterion_08_determinantal_identities():
    with _Budget(8, "determinant formulas reproduce every basis class", 30.0):
        space = GrassmannianDescriptor(3, 6)
        covered = 0
        for lam in partitions_in_box(3, 3):
            assert giambelli(lam, space) == GrassmannClass.basis(space, lam), lam
            covered += 1
        assert covered == 20

        for size in range(9):
            for lam in partitions_of(size):
                assert jacobi_trudi(lam) == SchurExpansion.basis(lam), lam


def test_criterion_09_flag_consistency():
    with _Budget(9, "flag products: transposition rule, positivity, dictionary", 120.0):
        for n in (3, 4):
            space = FlagDescriptor((1,) * n)
            identity = tuple(range(1, n + 1))
            perms = [tuple(p) for p in itertools.permutations(identity)]
            for w in perms:
                base = FlagClass.basis(space, w)
                for r in range(1, n):
                    via_rule = monk_multiply(r, base)
                    via_product = flag_multiply(
                        FlagClass.basis(
                            space, perm_swap_positions(identity, r, r + 1)
                        ),
                        base,
                    )
                    assert via_rule == via_product, (w, r)

        space4 = FlagDescriptor((1, 1, 1, 1))
        perms4 = [tuple(p) for p in itertools.permutations((1, 2, 3, 4))]
        for u in perms4:
            for v in perms4:
                prod = flag_multiply(
                    FlagClass.basis(space4, u),
                    FlagClass.basis(space4, v),
                )
                assert all(c >= 0 for c in prod.terms.values()), (u, v)

        grass = GrassmannianDescriptor(2, 4)
        two_step = FlagDescriptor((2, 2))
        shapes = list(partitions_in_box(2, 2))
        for lam in shapes:
            for mu in shapes:
                gr_prod = gr_multiply(
                    GrassmannClass.basis(grass, lam),
                    GrassmannClass.basis(grass, mu),
                )
                fl_prod = flag_multiply(
                    FlagClass.basis(two_step, perm_from_osp(partition_to_osp(lam, 2, 2))),
                    FlagClass.basis(two_step, perm_from_osp(partition_to_osp(mu, 2, 2))),
                )
                # flag keys are stored without trailing fixed points
                translated = {
                    perm_strip(perm_from_osp(partition_to_osp(nu, 2, 2))): c
                    for nu, c in gr_prod.terms.items()
                }
                assert fl_prod.terms == translated, (lam, mu)
                assert gr_integrate(gr_prod) == flag_integrate(fl_prod), (lam, mu)


def test_criterion_10_halving_homomorphism():
    with _Budget(10, "halving map is multiplicative; bundle classes scale by 2^j", 30.0):
        real_gr = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
        doubled_partitions = [
            partition_double(lam) for lam in partitions_in_box(2, 2)
        ]
        for di in doubled_partitions:
            for dj in doubled_partitions:
                a = HalvingClass.basis(real_gr, di)
                b = HalvingClass.basis(real_gr, dj)
                assert kappa(real_double_multiply(a, b)) == gr_multiply(
                    kappa(a), kappa(b)
                ), (di, dj)

        real_fl = HalvingSpaceDescriptor.real_even_flag((2, 2, 2))
        fixed = real_fl.fixed_point
        doubled_perms = [perm_double(p) for p in itertools.permutations((1, 2, 3))]
        for di in doubled_perms:
            for dj in doubled_perms:
                a = HalvingClass.basis(real_fl, di)
                b = HalvingClass.basis(real_fl, dj)
                assert kappa(real_double_multiply(a, b)) == flag_multiply(
                    kappa(a), kappa(b)
                ), (di, dj)

        line_space = HalvingSpaceDescriptor.real_even_grassmannian(2, 12)
        projective = line_space.fixed_point
        first = kappa_char_class(line_space, 1)
        assert first == 2 * chern_class("sub", 1, projective)
        for i in range(6):
            assert first ** i == (2 ** i) * (
                chern_class("sub", 1, projective) ** i
            ), i
