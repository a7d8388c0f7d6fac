"""The strip pass against the per-box and per-candidate oracles and Pieri."""

import pytest

from lr_oracle import count_lr_tableaux, expand_by_candidates, pieri
from schubcalc.indexing import partition_contains, partitions_in_box, partitions_of
from schubcalc.schur import expand_basis_product, lr_coefficient

SMALL = [()] + [lam for size in range(1, 7) for lam in partitions_of(size)]


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 4), (3, 5), (5, 3), (2, 6)])
def test_every_product_in_a_box(rows, cols):
    shapes = list(partitions_in_box(rows, cols))
    for lam in shapes:
        for mu in shapes:
            got = expand_basis_product(lam, mu, rows=rows, cols=cols)
            assert got == expand_by_candidates(lam, mu, rows, cols), (lam, mu)


def test_unbounded_products_up_to_size_six():
    for lam in SMALL:
        for mu in SMALL:
            assert expand_basis_product(lam, mu) == expand_by_candidates(lam, mu), (lam, mu)


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
        rows, cols = box or (None, None)
        got = expand_basis_product(lam, mu, rows=rows, cols=cols)
        assert got == expand_by_candidates(lam, mu, rows, cols), (lam, mu, box)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_single_rows_and_columns_follow_pieri(p):
    for lam in SMALL:
        for strip, kind in (((p,), "row"), ((1,) * p, "column")):
            want = pieri(lam, p, kind).terms
            for a, b in ((lam, strip), (strip, lam)):
                assert dict(expand_basis_product(a, b)) == want, (a, b)
