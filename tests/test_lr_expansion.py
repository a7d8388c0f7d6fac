"""The one-pass product kernel against the per-candidate oracle and Pieri."""

import pytest

from lr_oracle import expand_by_candidates
from schubcalc.indexing import partitions_in_box, partitions_of
from schubcalc.schur import expand_basis_product, pieri

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
