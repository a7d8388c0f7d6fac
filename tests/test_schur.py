"""Littlewood-Richardson arithmetic against frozen values and the tableau oracle."""

import importlib
import itertools
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

from det_oracle import oracle_determinant
import lr_oracle
from lr_oracle import partitions_of, pieri
from schubcalc.indexing import partition_conjugate, partition_size
import schubcalc
import schubcalc.schur
import schubcalc.selftest
from schubcalc.schur import SchurExpansion, lr_coefficient, ring_determinant, schur_multiply
from schubcalc.selftest import (
    SparsePolynomial,
    _oracle_cache,
    _schubert_table,
    jacobi_trudi,
    oracle_cache_clear,
    oracle_schur_polynomial,
    schubert_polynomial,
)


def s(*parts):
    return SchurExpansion.basis(parts)


@st.composite
def small_partition(draw, max_size=4):
    n = draw(st.integers(0, max_size))
    choices = list(partitions_of(n)) if n else [()]
    return draw(st.sampled_from(choices))


def brute_ssyt_polynomial(lam, n):
    """Cell-by-cell tableau enumeration, only usable for tiny shapes."""
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r])]
    out = {}

    def rec(i, grid, weight):
        if i == len(cells):
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[i]
        lo = grid[(r - 1, c)] + 1 if r > 0 else 1
        if c > 0:
            lo = max(lo, grid[(r, c - 1)])
        for v in range(lo, n + 1):
            grid[(r, c)] = v
            weight[v - 1] += 1
            rec(i + 1, grid, weight)
            weight[v - 1] -= 1
            del grid[(r, c)]

    rec(0, {}, [0] * n)
    return SparsePolynomial(out)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_lr_single_boxes():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0


def test_lr_classic_multiplicity_two():
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_vanishing():
    assert lr_coefficient((2,), (1, 1), (2, 2)) == 0
    assert lr_coefficient((2, 2), (1,), (2, 2, 2)) == 0
    assert lr_coefficient((3,), (2,), (4, 2)) == 0  # wrong size


def test_lr_empty_factors():
    assert lr_coefficient((), (), ()) == 1
    assert lr_coefficient((2, 1), (), (2, 1)) == 1
    assert lr_coefficient((), (2, 1), (2, 1)) == 1


def test_multiply_row_times_column():
    got = schur_multiply(s(2), s(1, 1))
    assert got == s(3, 1) + s(2, 1, 1)


def test_multiply_squares():
    got = schur_multiply(s(1), s(1))
    assert got == s(2) + s(1, 1)
    got = schur_multiply(s(2, 1), s(2, 1))
    expected = (
        s(4, 2) + s(4, 1, 1) + s(3, 3) + 2 * s(3, 2, 1) + s(3, 1, 1, 1)
        + s(2, 2, 2) + s(2, 2, 1, 1)
    )
    assert got == expected


def test_pieri_row_example():
    assert pieri((2,), 2, "row") == s(4) + s(3, 1) + s(2, 2)


def test_pieri_column_example():
    assert pieri((2,), 2, "column") == s(3, 1) + s(2, 1, 1)


def test_pieri_edge_cases():
    assert pieri((), 3, "row") == s(3)
    assert pieri((), 3, "column") == s(1, 1, 1)
    assert pieri((2, 1), 0, "row") == s(2, 1)
    with pytest.raises(ValueError):
        pieri((1,), 1, "diagonal")


def test_jacobi_trudi_box():
    assert jacobi_trudi((2, 2)) == s(2, 2)


def test_oracle_tiny_polynomials():
    x1, x2 = SparsePolynomial.variable(1), SparsePolynomial.variable(2)
    assert oracle_schur_polynomial((1,), 2) == x1 + x2
    assert oracle_schur_polynomial((1, 1), 2) == x1 * x2
    assert oracle_schur_polynomial((2,), 2) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert oracle_schur_polynomial((1, 1, 1), 2) == SparsePolynomial.zero()
    assert oracle_schur_polynomial((), 3) == SparsePolynomial.one()


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


def test_oracle_matches_brute_enumeration():
    for lam in [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (2, 1, 1)]:
        for n in range(1, 5):
            assert oracle_schur_polynomial(lam, n) == brute_ssyt_polynomial(lam, n)


def test_products_match_oracle_small():
    sizes = [lam for k in range(4) for lam in partitions_of(k)]
    for lam, mu in itertools.product(sizes, sizes):
        n = partition_size(lam) + partition_size(mu)
        left = oracle_schur_polynomial(lam, n) * oracle_schur_polynomial(mu, n)
        right = SparsePolynomial.zero()
        for nu, c in schur_multiply(s(*lam), s(*mu)).terms.items():
            right = right + c * oracle_schur_polynomial(nu, n)
        assert left == right, (lam, mu)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_lr_symmetry_and_conjugation_up_to_size_8():
    pairs = 0
    for total in range(9):
        for a in range(total + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(total - a):
                    left = schur_multiply(s(*lam), s(*mu))
                    right = schur_multiply(s(*mu), s(*lam))
                    assert left == right, (lam, mu)
                    conj = schur_multiply(
                        s(*partition_conjugate(lam)), s(*partition_conjugate(mu))
                    )
                    assert conj.terms == {
                        partition_conjugate(nu): c for nu, c in left.terms.items()
                    }, (lam, mu)
                    pairs += 1
    assert pairs > 400


@given(small_partition(), small_partition())
def test_products_are_graded(lam, mu):
    prod = schur_multiply(s(*lam), s(*mu))
    total = partition_size(lam) + partition_size(mu)
    for nu, c in prod.terms.items():
        assert partition_size(nu) == total
        assert c > 0


@settings(max_examples=40)
@given(small_partition(max_size=3), small_partition(max_size=3), small_partition(max_size=3))
def test_associativity(lam, mu, nu):
    a, b, c = s(*lam), s(*mu), s(*nu)
    assert (a * b) * c == a * (b * c)


@given(small_partition(), st.integers(0, 3))
def test_pieri_agrees_with_lr_kernel(lam, p):
    assert pieri(lam, p, "row") == schur_multiply(s(*lam), s(p) if p else s())
    col = s(*((1,) * p)) if p else s()
    assert pieri(lam, p, "column") == schur_multiply(s(*lam), col)


def test_jacobi_trudi_small_range():
    for total in range(7):
        for lam in partitions_of(total):
            assert jacobi_trudi(lam) == s(*lam), lam


def test_expansion_ring_basics():
    a = 2 * s(1) - s(1) - s(1)
    assert a.is_zero()
    assert (s(2, 1) + s(1)).coefficient((1,)) == 1
    assert s() == SchurExpansion.one()
    assert (s(1) ** 3).coefficient((2, 1)) == 2


class Z:
    """Bare integers with just the ring operations a determinant uses."""

    def __init__(self, v):
        self.v = v

    def __add__(self, o):
        return Z(self.v + o.v)

    def __neg__(self):
        return Z(-self.v)

    def __mul__(self, o):
        return Z(self.v * o.v)

    def __sub__(self, o):
        return Z(self.v - o.v)

    def __bool__(self):
        return self.v != 0


def test_ring_determinant_on_integers():
    mat = [[Z(2), Z(1), Z(0)], [Z(1), Z(3), Z(1)], [Z(0), Z(1), Z(4)]]
    assert ring_determinant(mat, Z(1)).v == 2 * (3 * 4 - 1) - (4 - 0)
    assert ring_determinant([], Z(1)).v == 1


def test_ring_determinant_matches_column_choice_oracle():
    rng = random.Random(11)
    for trial in range(400):
        n = rng.randint(1, 7)
        density = rng.choice([0.2, 0.5, 0.9])
        rows = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if trial % 10 == 0:
            rows[rng.randrange(n)] = [0] * n
        if trial % 10 == 5:
            for row in rows:
                row[n - 1 - trial % n] = 0
        mat = [[Z(v) for v in row] for row in rows]
        assert ring_determinant(mat, Z(1)).v == oracle_determinant(mat, Z(1)).v, rows


def _code_names(fn):
    """Every global and attribute name fn's code reads, nested code included."""
    names, stack = set(), [fn.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    return names


_LR_KERNELS = {"_strip_pass", "_lr_product", "schur_multiply", "lr_coefficient"}
_CHECKED_KERNELS = {
    "monk_multiply": {"_times_variable", "_transition", "_schubert_times", "flag_multiply"},
    "oracle_schur_polynomial": _LR_KERNELS,
    "_schur_weights": _LR_KERNELS,
    "_strips_below": _LR_KERNELS,
    "strip_pass_reference": _LR_KERNELS,
    "_reference_strips": _LR_KERNELS,
}


@pytest.mark.parametrize("oracle", sorted(_CHECKED_KERNELS))
def test_the_oracles_name_none_of_the_kernels_they_check(oracle):
    fn = getattr(schubcalc.selftest, oracle, None) or getattr(lr_oracle, oracle)
    assert not _code_names(fn) & _CHECKED_KERNELS[oracle]


def test_the_checked_lr_kernels_exist():
    assert all(hasattr(schubcalc.schur, name) for name in _LR_KERNELS)


def test_oracle_cache_clear_empties_every_kernel_cache():
    lru_caches = set()
    for info in pkgutil.iter_modules(schubcalc.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"schubcalc.{info.name}")
        lru_caches |= {f for f in vars(module).values() if hasattr(f, "cache_info")}
    schur_multiply(s(2, 1), s(2, 1))
    lr_coefficient((2, 1), (2, 1), (3, 2, 1))
    oracle_schur_polynomial((2, 1), 3)
    schubert_polynomial((2, 3, 1))
    assert _oracle_cache and _schubert_table
    assert all(f.cache_info().currsize for f in lru_caches)
    oracle_cache_clear()
    assert not _oracle_cache and not _schubert_table
    assert not any(f.cache_info().currsize for f in lru_caches)
