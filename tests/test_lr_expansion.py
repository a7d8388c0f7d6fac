"""The strip pass against the per-box and per-candidate oracles and Pieri."""

import random

import pytest

from lr_oracle import (
    count_lr_tableaux,
    expand_by_candidates,
    partitions_of,
    pieri,
    schur_multiply_by_pairs,
    strip_pass_reference,
)
from schubcalc.grassmann import GrassmannClass, GrassmannianDescriptor, gr_multiply
from schubcalc.indexing import partition_contains
from schubcalc.schur import SchurExpansion, _strip_pass, lr_coefficient, schur_multiply
from schubcalc.selftest import partitions_in_box

SMALL = [()] + [lam for size in range(1, 7) for lam in partitions_of(size)]


def _pairs(cls):
    return tuple(sorted(cls.terms.items(), reverse=True))


def boxed_product(lam, mu, rows, cols):
    """s_lam * s_mu in H*(Gr(rows, rows + cols)), as the oracle lists it."""
    space = GrassmannianDescriptor(rows, rows + cols)
    a, b = (GrassmannClass.basis(space, p) for p in (lam, mu))
    return _pairs(gr_multiply(a, b))


def unbounded_product(lam, mu):
    """s_lam * s_mu in the ring of symmetric functions, as the oracle lists it."""
    return _pairs(schur_multiply(SchurExpansion.basis(lam), SchurExpansion.basis(mu)))


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 4), (3, 5), (5, 3), (2, 6)])
def test_every_product_in_a_box(rows, cols):
    shapes = list(partitions_in_box(rows, cols))
    for lam in shapes:
        for mu in shapes:
            got = boxed_product(lam, mu, rows, cols)
            assert got == expand_by_candidates(lam, mu, rows, cols), (lam, mu)


def test_unbounded_products_up_to_size_six():
    for lam in SMALL:
        for mu in SMALL:
            assert unbounded_product(lam, mu) == expand_by_candidates(lam, mu), (lam, mu)


def test_single_coefficients_up_to_size_six():
    # every nu of the right size that holds both factors: the product's
    # support and 5507 zero cases; tall and wide factors alike, so both
    # orientations of the capped pass run
    for lam in SMALL:
        for mu in SMALL:
            for nu in partitions_of(sum(lam) + sum(mu)):
                if partition_contains(nu, lam) and partition_contains(nu, mu):
                    want = count_lr_tableaux(lam, mu, nu)
                    assert lr_coefficient(lam, mu, nu) == want, (lam, mu, nu)


def test_larger_shapes():
    for lam, mu, box in [
        ((4, 3, 2, 1), (3, 2, 1), None),
        ((3, 3, 1), (3, 2, 2, 1), None),
        ((5, 3, 3, 1), (4, 2, 2), (5, 6)),
        ((6, 4, 4, 2, 1), (3, 3, 2, 1), (6, 6)),
    ]:
        if box:
            got = boxed_product(lam, mu, *box)
            want = expand_by_candidates(lam, mu, *box)
        else:
            got = unbounded_product(lam, mu)
            want = expand_by_candidates(lam, mu)
        assert got == want, (lam, mu, box)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_single_rows_and_columns_follow_pieri(p):
    for lam in SMALL:
        for strip, kind in (((p,), "row"), ((1,) * p, "column")):
            want = pieri(lam, p, kind).terms
            for a, b in ((lam, strip), (strip, lam)):
                assert dict(unbounded_product(a, b)) == want, (a, b)


def signed_expansion(rng, nterms):
    shapes = rng.sample(SMALL, k=nterms)
    return SchurExpansion({lam: rng.choice((-3, -2, -1, 1, 2, 3)) for lam in shapes})


def test_class_seeded_schur_product_matches_the_pairwise_oracle():
    rng = random.Random(17)
    unit, zero = SchurExpansion.one(), SchurExpansion.zero()
    s = SchurExpansion.basis
    cases = [
        (unit, unit), (zero, zero), (unit, zero),
        # s2 * s2 and s11 * s11 both hold s22, which cancels
        (s((2,)) - s((1, 1)), s((2,)) + s((1, 1))),
    ]
    for _ in range(40):
        a = signed_expansion(rng, rng.randint(1, 5))
        b = signed_expansion(rng, rng.randint(1, 5))
        cases += [(a, b), (unit, a), (zero, a)]
    for a, b in cases:
        want = schur_multiply_by_pairs(a, b)
        assert schur_multiply(a, b) == want, (a, b)
        assert schur_multiply(b, a) == want, (a, b)
    assert (s((2,)) - s((1, 1))) * (s((2,)) + s((1, 1))) == (
        s((4,)) + s((3, 1)) - s((2, 1, 1)) - s((1, 1, 1, 1))
    )


LETTERS = [mu for mu in SMALL if mu and len(mu) <= 4]


def _signed_seeds(rng, shapes):
    chosen = rng.sample(shapes, k=min(len(shapes), rng.randint(1, 5)))
    return {lam: rng.choice((-3, -2, -1, 1, 2, 3)) for lam in chosen}


def _strip_pass_cases(rng, trials):
    """(seeds, mu, caps, fill) as the products and lr_coefficient pass them."""
    s2_minus_s11 = {(2,): 1, (1, 1): -1}
    # s2 * s2 - s11 * s2 leaves s31 at 0; with s111 a state cancels mid-pass
    yield s2_minus_s11, (2,), (4,) * 4, False
    yield s2_minus_s11, (1, 1, 1), (5,) * 5, False
    yield s2_minus_s11, (2, 1, 1), (3,) * 5, False
    for _ in range(trials):
        mu = rng.choice(LETTERS)
        kind = rng.choice(("box", "unbounded", "fill"))
        if kind == "box":
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            seeds = _signed_seeds(rng, list(partitions_in_box(rows, cols)))
            yield seeds, mu, (cols,) * rows, False
        elif kind == "unbounded":
            seeds = _signed_seeds(rng, SMALL)
            width = max((lam[0] for lam in seeds if lam), default=0) + mu[0]
            rows = max(map(len, seeds)) + len(mu)
            yield seeds, mu, (width,) * rows, False
        else:
            seeds = _signed_seeds(rng, [lam for lam in SMALL if len(lam) >= len(mu)])
            lam = next(iter(seeds))
            nus = [
                nu for nu in partitions_of(sum(lam) + sum(mu))
                if partition_contains(nu, lam) and partition_contains(nu, mu)
            ]
            yield seeds, mu, rng.choice(nus), True


def test_strip_pass_matches_the_reference_pass():
    # the same dictionary, cancelled entries included, for seed classes of
    # 1-5 signed terms in a box, without a bound, and capped by nu with fill
    rng = random.Random(29)
    for seeds, mu, caps, fill in _strip_pass_cases(rng, 3000):
        want = strip_pass_reference(dict(seeds), mu, caps, fill)
        assert _strip_pass(dict(seeds), mu, caps, fill) == want, (seeds, mu, caps, fill)
