"""Counts by Poincare pairing, against the forward product.

`combination.intersection_number` pairs half of a product with the rest
through each class type's `_dual_key`. Its oracle is the product of every
copy, in order, and the coefficient of the point class read from it.
"""

import dataclasses
import pickle
import random
from itertools import permutations

import pytest

import schubcalc.combination as combination
import schubcalc.grassmann as grassmann
from schubcalc.flag import FlagClass, FlagDescriptor, flag_integrate
from schubcalc.grassmann import (
    GrassmannClass,
    GrassmannianDescriptor,
    degeneracy_count,
    degeneracy_count_and_locus,
    gr_integrate,
)
from schubcalc.halving import (
    REAL_EVEN,
    HalvingSpaceDescriptor,
    SchubertProblem,
    _multiply_conditions,
    quaternionic_count,
    real_lower_bound,
)
from schubcalc.indexing import is_minimal_rep, partition_double, perm_double, perm_strip
from schubcalc.selftest import partitions_in_box
from schubcalc.serialize import ParsedProblem

DUALITY_SPACES = [
    GrassmannianDescriptor(3, 6),
    GrassmannianDescriptor(2, 7),
    FlagDescriptor((1, 1, 1, 1)),
    FlagDescriptor((1, 2, 1)),
    FlagDescriptor((2, 1, 2)),
]


def ring(space):
    if isinstance(space, GrassmannianDescriptor):
        return GrassmannClass, gr_integrate
    return FlagClass, flag_integrate


def keys(space):
    """Every basis key of the space, as its class type stores it."""
    if isinstance(space, GrassmannianDescriptor):
        return list(partitions_in_box(space.k, space.l))
    n = space.n
    return [
        perm_strip(w)
        for w in permutations(range(1, n + 1))
        if is_minimal_rep(w, space.dims)
    ]


def forward_count(space, conditions):
    """The point-class coefficient of the product of every copy, in order."""
    cls, integrate = ring(space)
    product = cls.unit(space)
    for key, count in conditions:
        for _ in range(count):
            product = product * cls._make(space, {key: 1})
    return integrate(product)


@pytest.mark.parametrize("space", DUALITY_SPACES, ids=str)
def test_dual_key_is_the_partner_that_pairs_to_one(space):
    cls, integrate = ring(space)
    basis = {u: cls._make(space, {u: 1}) for u in keys(space)}
    for u, a in basis.items():
        dual = cls._dual_key(space, u)
        assert dual in basis, (space, u, dual)
        assert cls._dual_key(space, dual) == u
        for v, b in basis.items():
            assert integrate(a * b) == (1 if v == dual else 0), (space, u, v)


def random_conditions(rng, space, parity):
    """Conditions whose degrees fill the dimension of a complex space.

    parity "even" gives every condition an even count, "odd" an odd one,
    "power" one condition of degree 1 or 2 to the whole dimension.
    """
    cls = ring(space)[0]
    dim = space.complex_dimension
    by_degree = {}
    for key in keys(space):
        if cls._rank(key):
            by_degree.setdefault(cls._rank(key), []).append(key)
    if parity == "power":
        degree = rng.choice([d for d in (1, 2) if dim % d == 0])
        return [(rng.choice(by_degree[degree]), dim // degree)]
    while True:
        conditions, left = [], dim
        while left > 0:
            degree = rng.choice([d for d in by_degree if d <= left])
            count = rng.randint(1, 3)
            count += (count % 2) if parity == "even" else 1 - count % 2
            if count * degree > left:
                break
            conditions.append((rng.choice(by_degree[degree]), count))
            left -= count * degree
        if left == 0:
            return conditions


COMPLEX_SPACES = [
    GrassmannianDescriptor(2, 4),
    GrassmannianDescriptor(3, 6),
    GrassmannianDescriptor(2, 6),
    GrassmannianDescriptor(3, 7),
    FlagDescriptor((1, 1, 1, 1)),
    FlagDescriptor((2, 1, 2)),
    FlagDescriptor((1, 2, 1)),
    FlagDescriptor((1, 1, 1, 1, 1)),
]


@pytest.mark.parametrize(
    "space, parity",
    [
        (space, parity)
        for space in COMPLEX_SPACES
        for parity in ("even", "odd", "power")
        # even counts cannot fill an odd dimension
        if parity != "even" or space.complex_dimension % 2 == 0
    ],
    ids=str,
)
def test_pairing_count_matches_the_forward_product(space, parity):
    rng = random.Random(f"{space}/{parity}")
    for _ in range(6):
        conditions = random_conditions(rng, space, parity)
        expected = forward_count(space, conditions)
        assert _multiply_conditions(space, conditions, True) == expected, conditions


HALVING_SPACES = [
    HalvingSpaceDescriptor.real_even_grassmannian(4, 8),
    HalvingSpaceDescriptor.real_even_grassmannian(6, 12),
    HalvingSpaceDescriptor.real_even_flag((2, 2, 2, 2)),
    HalvingSpaceDescriptor.quaternionic_grassmannian(3, 6),
    HalvingSpaceDescriptor.quaternionic_flag((1, 2, 1)),
]


@pytest.mark.parametrize("space", HALVING_SPACES, ids=str)
def test_halving_counts_match_the_forward_product(space):
    fp = space.fixed_point
    real = space.kind == REAL_EVEN
    double = partition_double if isinstance(fp, GrassmannianDescriptor) else perm_double
    rng = random.Random(str(space))
    for parity in ("even", "odd", "power"):
        if parity == "even" and fp.complex_dimension % 2:
            continue
        for _ in range(3):
            conditions = random_conditions(rng, fp, parity)
            posed = [(double(key) if real else key, c) for key, c in conditions]
            problem = SchubertProblem(space, posed)
            count = real_lower_bound(problem) if real else quaternionic_count(problem)
            assert count == forward_count(fp, conditions), (space, conditions)


@pytest.mark.parametrize(
    "space, e, f, rho, m",
    [
        (GrassmannianDescriptor(2, 4), 2, 2, 1, 4),  # even m
        (GrassmannianDescriptor(4, 8), 4, 4, 2, 4),  # even m, codimension 4
        (GrassmannianDescriptor(2, 5), 2, 3, 1, 3),  # odd m, split
        (GrassmannianDescriptor(3, 6), 3, 3, 2, 9),  # odd m, split
        (GrassmannianDescriptor(3, 6), 3, 3, 0, 1),  # one map, forward
    ],
)
def test_degeneracy_count_matches_the_forward_power(space, e, f, rho, m):
    count, locus = degeneracy_count_and_locus(space, e, f, rho, m)
    assert count == gr_integrate(locus ** m)
    assert degeneracy_count(space, e, f, rho, m) == count


def degrees(x, y):
    return tuple(max(map(c._rank, c.terms), default=0) for c in (x, y))


def test_the_split_takes_a_third_of_the_dimension(monkeypatch):
    # a split pairs X of degree deg X with Y = X L; below a third of the
    # dimension (deg X < deg L) one copy of the first condition of highest
    # degree is left out, and the rest R is paired with it
    seen = []
    pair = combination._pair

    def spy(x, y):
        seen.append(degrees(x, y))
        return pair(x, y)

    monkeypatch.setattr(combination, "_pair", spy)
    gr36 = GrassmannianDescriptor(3, 6)
    gr24 = GrassmannianDescriptor(2, 4)
    cases = [
        (gr36, [((1,), 9)], [(4, 5)]),  # X = s1^4, L = s1
        (gr36, [((2,), 2), ((1,), 3), ((1, 1), 1)], [(3, 6)]),  # deg X = deg L
        (gr24, [((1,), 2), ((2,), 1)], [(2, 2)]),  # deg X 1 < deg L 2: R = s1^2
        (gr36, [((1,), 4), ((1, 1), 1), ((3,), 1)], [(6, 3)]),  # deg X 2 < deg L 5
        (gr36, [((3,), 1), ((3,), 1), ((1,), 3)], [(6, 3)]),  # deg X 1 < deg L 7
        (gr36, [((2, 2), 2), ((1,), 1)], [(4, 5)]),  # all but one copy even
        (gr36, [((3, 3, 3), 1)], []),  # one copy: its own point coefficient
    ]
    for space, conditions, pairs in cases:
        seen.clear()
        assert _multiply_conditions(space, conditions, True) == forward_count(space, conditions)
        assert seen == pairs, conditions


@pytest.mark.parametrize(
    "space, conditions",
    [
        (GrassmannianDescriptor(3, 6), [((3,), 1), ((1,), 3), ((2, 1), 1)]),
        (GrassmannianDescriptor(3, 7), [((3,), 1), ((2, 1), 3)]),
        (GrassmannianDescriptor(3, 7), [((3,), 3), ((1, 1, 1), 1)]),
        (FlagDescriptor((2, 1, 2)), [((2, 4, 1, 3), 1), ((2, 3, 4, 1), 1), ((1, 3, 4, 2), 1)]),
    ],
    ids=str,
)
def test_an_unsplit_count_leaves_out_the_first_copy_of_highest_degree(
    monkeypatch, space, conditions
):
    cls = ring(space)[0]
    seen, withins, bounds = [], set(), set()
    pair = combination._pair

    def pair_spy(x, y):
        seen.append((x, y))
        return pair(x, y)

    product = cls._product_within

    def product_spy(self, other, within):
        withins.add(within)
        return product(self, other, within)

    lr_product = grassmann._lr_product

    def lr_spy(a, b, within=None):
        bounds.add(within)
        return lr_product(a, b, within)

    monkeypatch.setattr(combination, "_pair", pair_spy)
    monkeypatch.setattr(cls, "_product_within", product_spy)
    monkeypatch.setattr(grassmann, "_lr_product", lr_spy)
    for order in permutations(conditions):
        expected = forward_count(space, order)
        seen.clear()
        withins.clear()
        bounds.clear()
        assert _multiply_conditions(space, order, True) == expected != 0
        top = max(order, key=lambda kc: cls._rank(kc[0]))[0]
        (rest, y), = seen
        assert y.terms == {top: 1}, order
        assert degrees(rest, y) == (space.complex_dimension - cls._rank(top), cls._rank(top))
        # every product takes top's dual as its bound
        assert withins == {cls._dual_key(space, top)}, order
        if cls is GrassmannClass:  # its products build only the shapes inside it
            assert bounds == withins, order


def record_twin(record):
    """A frozen dataclass with the record's name and fields, built from its
    values: what the record was before it became a plain class."""
    twin = dataclasses.make_dataclass(
        type(record).__name__, type(record)._fields, frozen=True
    )
    twin.__qualname__ = type(record).__qualname__
    return twin(*record._values())


def test_records_keep_their_dataclass_repr_hash_and_equality():
    gr = GrassmannianDescriptor(2, 4)
    fl = FlagDescriptor([2, "1"])
    real = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
    problem = SchubertProblem(real, [([2, 2], 2), ((4, 4, 2, 2), "1")])
    parsed = ParsedProblem(["raw"], gr, "count", (((1,), 4),), None)
    for record in (gr, fl, real, problem):
        twin = record_twin(record)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record == type(record)(*record._values())
        assert pickle.loads(pickle.dumps(record)) == record
        assert record != twin
    assert repr(parsed) == repr(record_twin(parsed))
    assert repr(fl) == "FlagDescriptor(dims=(2, 1))"
    assert repr(problem) == (
        "SchubertProblem(space=HalvingSpaceDescriptor(kind='real_even_flag', "
        "fixed_point=GrassmannianDescriptor(k=2, n=4)), "
        "conditions=(((2, 2), 2), ((4, 4, 2, 2), 1)))"
    )
    real.index_space  # set once by __init__, outside the fields
    assert real == HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
    assert hash(real) == hash(("real_even_flag", GrassmannianDescriptor(2, 4)))
    for record in (gr, fl, real):
        with pytest.raises(AttributeError):
            record.dims = (1,)
        with pytest.raises(AttributeError):
            del record.kind
