"""Partition, ordered set partition and permutation combinatorics.

The OSP helpers and the Lehmer code below are oracles: each computes on
the blocks (or the inversions) directly, and the tests check the
permutation forms in `schubcalc.indexing` against them.  The helpers that
only the oracles use come from `schubcalc.selftest`, `partitions_of` from
`lr_oracle` and `partition_to_osp` from `flag_oracle`.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from flag_oracle import partition_to_osp
from lr_oracle import partitions_of
from schubcalc.errors import BoxOverflow, NotADouble
from schubcalc.indexing import (
    fits_in_box,
    is_minimal_rep,
    normalize_osp,
    normalize_partition,
    osp_from_perm,
    partition_conjugate,
    partition_contains,
    partition_double,
    partition_halve,
    partition_size,
    perm_double,
    perm_from_osp,
    perm_halve,
    perm_length,
    perm_pad,
    perm_strip,
)
from schubcalc.selftest import (
    longest_perm,
    partitions_in_box,
    perm_compose,
    perm_descents,
    perm_from_code,
    perm_inverse,
    perm_swap_positions,
    reduced_word,
)


# ---------------------------------------------------------------------------
# oracles computed on the blocks of an OSP
# ---------------------------------------------------------------------------


def osp_length(osp):
    """Number of inter-block inversions.

    Pairs (a, b) with a in an earlier block, b in a later block and
    a > b.  This is the codimension of the associated Schubert cell and
    equals the Coxeter length of the minimal coset representative.
    """
    inv = 0
    for i in range(len(osp)):
        for j in range(i + 1, len(osp)):
            for a in osp[i]:
                for b in osp[j]:
                    if a > b:
                        inv += 1
    return inv


def osp_double(osp):
    """Replace every letter i by the pair 2i-1, 2i, block by block."""
    return tuple(tuple(sorted(y for x in b for y in (2 * x - 1, 2 * x))) for b in osp)


def osp_halve(osp):
    """Inverse of osp_double.  Raises NotADouble if impossible."""
    out = []
    for b in osp:
        if len(b) % 2 != 0:
            raise NotADouble("odd block size in %r" % (osp,))
        bs = []
        seen = set(b)
        for x in b:
            if x % 2 == 1:
                if x + 1 not in seen:
                    raise NotADouble("letter %d is missing its partner %d" % (x, x + 1))
                bs.append((x + 1) // 2)
            elif x - 1 not in seen:
                raise NotADouble("letter %d is missing its partner %d" % (x, x - 1))
        out.append(tuple(sorted(bs)))
    return tuple(out)


def is_doubled_osp(osp):
    try:
        osp_halve(osp)
    except NotADouble:
        return False
    return True


def osp_to_partition(osp):
    """Two-block OSP -> (partition, k, l), inverting partition_to_osp."""
    if len(osp) != 2:
        raise ValueError("partition dictionary needs exactly two blocks, got %d" % len(osp))
    k, l = len(osp[0]), len(osp[1])
    lam = tuple(osp[0][k - i] - (k + 1 - i) for i in range(1, k + 1))
    return normalize_partition(lam), k, l


def perm_code(w):
    """Lehmer code: c_i counts the j > i with w(j) < w(i)."""
    n = len(w)
    return tuple(sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n))


@st.composite
def partition_strategy(draw, max_size=12, max_part=8):
    parts = draw(st.lists(st.integers(min_value=1, max_value=max_part), max_size=max_size))
    return tuple(sorted(parts, reverse=True))


@st.composite
def osp_strategy(draw, max_ground=8):
    n = draw(st.integers(min_value=1, max_value=max_ground))
    perm = draw(st.permutations(list(range(1, n + 1))))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=n - 1)) if n > 1 else set()
    bounds = [0] + sorted(cuts) + [n]
    return normalize_osp([perm[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)])


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_normalize_strips_zeros_and_rejects_junk():
    assert normalize_partition([3, 2, 0, 0]) == (3, 2)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition([1, 2])
    with pytest.raises(ValueError):
        normalize_partition([2, -1])


def test_conjugate_small_cases():
    assert partition_conjugate(()) == ()
    assert partition_conjugate((3, 1)) == (2, 1, 1)
    assert partition_conjugate((2, 2)) == (2, 2)


@given(partition_strategy())
def test_conjugate_is_involution(lam):
    assert partition_conjugate(partition_conjugate(lam)) == lam
    assert partition_size(partition_conjugate(lam)) == partition_size(lam)


def test_double_examples():
    assert partition_double(()) == ()
    assert partition_double((1,)) == (2, 2)
    assert partition_double((2, 1)) == (4, 4, 2, 2)
    assert partition_double((2, 2)) == (4, 4, 4, 4)


def test_halve_rejects_non_doubles():
    for bad in [(3, 3), (2, 1), (2, 2, 2), (2,), (4, 2)]:
        with pytest.raises(NotADouble):
            partition_halve(bad)


@given(partition_strategy())
def test_double_halve_roundtrip(lam):
    doubled = partition_double(lam)
    assert partition_halve(doubled) == lam
    assert partition_double(partition_halve(doubled)) == doubled
    assert partition_size(doubled) == 4 * partition_size(lam)


def test_partitions_in_box_count_and_membership():
    box33 = list(partitions_in_box(3, 3))
    assert len(box33) == 20
    assert all(fits_in_box(lam, 3, 3) for lam in box33)
    assert len(set(box33)) == 20
    sizes = [partition_size(lam) for lam in box33]
    assert sizes == sorted(sizes)


def test_partitions_of_matches_known_counts():
    assert sum(1 for _ in partitions_of(8)) == 22
    assert list(partitions_of(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_contains():
    assert partition_contains((3, 2), (2, 2))
    assert not partition_contains((3, 2), (1, 1, 1))


# ---------------------------------------------------------------------------
# ordered set partitions
# ---------------------------------------------------------------------------


def test_normalize_osp_rejects_bad_blocks():
    with pytest.raises(ValueError):
        normalize_osp([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        normalize_osp([(1, 3)])
    with pytest.raises(ValueError):
        normalize_osp([(), (1,)])


def test_osp_double_example():
    assert osp_double(((1, 3), (2,))) == ((1, 2, 5, 6), (3, 4))


def test_osp_length_examples():
    assert osp_length(((3, 4), (1, 2))) == 4
    assert osp_length(((1, 2), (3, 4))) == 0
    assert osp_length(((2,), (1,), (3,))) == 1


@given(osp_strategy())
def test_osp_double_halve_roundtrip(osp):
    doubled = osp_double(osp)
    assert osp_halve(doubled) == osp
    assert is_doubled_osp(doubled)
    assert osp_length(doubled) == 4 * osp_length(osp)


def test_osp_halve_rejects_non_doubles():
    with pytest.raises(NotADouble):
        osp_halve(((1, 3), (2, 4)))
    with pytest.raises(NotADouble):
        osp_halve(((1,), (2,)))


@given(osp_strategy())
def test_perm_double_matches_osp_double(osp):
    w = perm_from_osp(osp)
    assert perm_double(w) == perm_from_osp(osp_double(osp))
    assert perm_halve(perm_double(w)) == w


@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 2), (2, 4)])
def test_perm_halve_accepts_exactly_the_doubled_cosets(dims):
    for w in itertools.permutations(range(1, 7)):
        osp = osp_from_perm(w, dims)
        if is_doubled_osp(osp):
            assert perm_halve(perm_from_osp(osp)) == perm_from_osp(osp_halve(osp))
        else:
            with pytest.raises(NotADouble):
                perm_halve(perm_from_osp(osp))


# ---------------------------------------------------------------------------
# partition <-> OSP dictionary
# ---------------------------------------------------------------------------


def test_partition_osp_convert_examples():
    assert partition_to_osp((), 1, 1) == ((1,), (2,))
    assert partition_to_osp((1,), 1, 1) == ((2,), (1,))
    assert partition_to_osp((2, 2), 2, 2) == ((3, 4), (1, 2))


def test_partition_osp_overflow():
    with pytest.raises(BoxOverflow):
        partition_to_osp((3,), 2, 2)
    with pytest.raises(BoxOverflow):
        partition_to_osp((1, 1, 1), 2, 2)


def test_partition_osp_roundtrip_small_boxes():
    for k in range(1, 5):
        for l in range(1, 5):
            for lam in partitions_in_box(k, l):
                osp = partition_to_osp(lam, k, l)
                assert osp_length(osp) == partition_size(lam)
                back, kk, ll = osp_to_partition(osp)
                assert (back, kk, ll) == (lam, k, l)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_perm_basics():
    w = (3, 1, 4, 2)
    assert perm_length(w) == 3
    assert perm_descents(w) == (1, 3)
    assert perm_inverse(w) == (2, 4, 1, 3)
    assert perm_compose(w, perm_inverse(w)) == (1, 2, 3, 4)
    assert perm_strip((2, 1, 3, 4)) == (2, 1)
    assert perm_pad((2, 1), 4) == (2, 1, 3, 4)
    assert perm_length(longest_perm(5)) == 10


def _inversions_by_pairs(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def test_perm_length_counts_the_inversions():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            assert perm_length(w) == _inversions_by_pairs(w), w
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(0, 50)
        w = tuple(rng.sample(range(1, n + 1), n))
        assert perm_length(w) == _inversions_by_pairs(w), w


def test_perm_code_roundtrip_s5():
    from itertools import permutations

    for w in permutations(range(1, 6)):
        code = perm_code(w)
        assert perm_from_code(code) == perm_strip(w) or perm_pad(perm_from_code(code), 5) == w
        assert sum(code) == perm_length(w)


def test_perm_from_code_pads_as_needed():
    assert perm_from_code((2, 0)) == (3, 1, 2)
    assert perm_from_code((0, 0, 1)) == (1, 2, 4, 3)
    assert perm_from_code(()) == ()


@given(st.permutations(list(range(1, 8))))
def test_reduced_word_multiplies_back(w):
    w = tuple(w)
    for strategy in ("leftmost", "rightmost"):
        word = reduced_word(w, strategy)
        assert len(word) == perm_length(w)
        identity = acc = tuple(range(1, len(w) + 1))
        for i in word:
            acc = perm_compose(acc, perm_swap_positions(identity, i, i + 1))
        assert acc == w


def test_osp_perm_dictionary():
    osp = ((3, 4), (1, 2))
    w = perm_from_osp(osp)
    assert w == (3, 4, 1, 2)
    assert is_minimal_rep(w, (2, 2))
    assert osp_from_perm(w, (2, 2)) == osp
    assert perm_length(w) == osp_length(osp)
    assert not is_minimal_rep((4, 3, 1, 2), (2, 2))


@given(osp_strategy())
def test_osp_perm_roundtrip(osp):
    dims = tuple(len(b) for b in osp)
    w = perm_from_osp(osp)
    assert is_minimal_rep(w, dims)
    assert osp_from_perm(w, dims) == osp
    assert perm_length(w) == osp_length(osp)
