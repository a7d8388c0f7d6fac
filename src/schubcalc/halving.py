"""Degree-halving reductions for real even and quaternionic Schubert problems.

Real even flag manifolds and quaternionic flag manifolds both carry a ring
isomorphism onto the rational cohomology of a complex flag manifold that
halves degrees. On Schubert bases the map is diagonal: a real class indexed
by a doubled diagram DI goes to 2^|I| times the complex class of I, a
quaternionic class indexed by I goes to 2^|I| times the complex class of I,
and the octonionic flag (complete flags in the 3-dimensional octonionic
plane-field sense) maps with multiplicity 1 onto the quaternionic ring of
three-step flags.

Every space descriptor states four things, which callers read instead of
testing its type: its `kind` (COMPLEX, REAL_EVEN, QUATERNIONIC or
OCTONIONIC), its `fixed_point`, the complex space that carries the halved
ring, its `index_space`, whose Schubert labels key its classes, and
`classes`, its class type. A complex Grassmannian or flag manifold is its
own fixed point and index space. The index space of a real even space is
the doubled space Gr(2k, C^2n) or Fl_2D(C^2n), that of the others their
fixed point. Keys are stored as the complex class there stores them,
partitions in the box or minimal coset representatives without trailing
fixed points (a doubled key strips whole pairs, so it still halves). JSON
indices, ordered set partitions among them, are read by
`serialize.index_from_json`, Python ones by `_index_key`. Every index
problem, on any space, then reaches the complex ring by one call of
`_multiply_conditions`, which halves each stored key onto the fixed point
(`_halve` keeps every key but a real even one) and multiplies in
`space.fixed_point.classes`; `solve` trusts the keys it is given. A corank
condition is checked by one rule, `_corank_rank`, for problem files and
for `real_degeneracy_lower_bound` alike.

Why this yields lower bounds: for a zero-dimensional real intersection
problem with doubled conditions, each solution carries a sign, and the
signed total is the top coefficient of the product of the real classes.
Pushing the product through the halving map multiplies each factor by
2^|I_j| and the point class by 2^(sum |I_j|); since the problem fills the
dimension exactly, the two powers agree and cancel, leaving the complex
intersection number of the halved problem as the signed real count. Its
absolute value bounds the number of real solutions from below, for every
generic configuration. Because the structure constants involved are
Littlewood-Richardson numbers, the signed count is already nonnegative.

Every count, complex, quaternionic or a real bound after halving, is such
an intersection number on a complex space, and `_multiply_conditions`
reads it by Poincare duality: the product X of half of each condition's
copies is paired with X times the copies left over, <X, X L>, so the
copies in X are multiplied once (combination.intersection_number). When
X would carry less than a third of the dimension, one copy of the first
condition of highest degree, s_u, is left out instead, and the product R
of every other copy is read at the dual key u*: on a Grassmannian every
product of R keeps only the shapes inside u*. The pairing needs each
complex class type's dual key: the rotated box complement on a
Grassmannian, w0 u w0^P on a flag. A class is the product of every copy
in input order.
"""

from fractions import Fraction

from .combination import (
    COMPLEX,
    Record,
    SparseCombination,
    decimal_text,
    intersection_number,
    multiply_copies,
)
from .errors import (
    DimensionMismatch,
    NotADouble,
    NotADoubleIndex,
)
from .flag import FlagClass, FlagDescriptor, _dims_text
from .grassmann import (
    GrassmannianDescriptor,
    chern_class,
    degeneracy_count,
)
from .indexing import (
    fits_in_box,
    normalize_partition,
    normalize_perm,
    osp_from_perm,
    partition_double,
    partition_halve,
    perm_double,
    perm_from_osp,
    perm_halve,
    perm_pad,
)

REAL_EVEN = "real_even_flag"
QUATERNIONIC = "quaternionic_flag"
OCTONIONIC = "octonionic_flag"
_KINDS = (REAL_EVEN, QUATERNIONIC, OCTONIONIC)


class HalvingSpaceDescriptor(Record):
    """A halving space, recorded by its kind and complex fixed-point space.

    Its `index_space` is set once, here, and is not a field: two halving
    spaces compare, hash and pickle by (kind, fixed_point) alone.
    """

    __slots__ = ("kind", "fixed_point", "index_space")
    _fields = ("kind", "fixed_point")
    classes = property(lambda self: HalvingClass)

    def __init__(self, kind, fixed_point):
        if kind not in _KINDS:
            raise ValueError(f"unknown halving kind {kind!r}")
        if not isinstance(fixed_point, (FlagDescriptor, GrassmannianDescriptor)):
            raise ValueError("fixed point must be a flag or Grassmannian descriptor")
        if kind == OCTONIONIC and fixed_point != FlagDescriptor((1, 1, 1)):
            raise ValueError("the octonionic flag only exists on three letters")
        super().__init__(kind, fixed_point)
        ix = fixed_point
        if kind == REAL_EVEN and self.grassmannian_fixed_point:
            ix = GrassmannianDescriptor(2 * ix.k, 2 * ix.n)
        elif kind == REAL_EVEN:
            ix = FlagDescriptor(tuple(2 * d for d in ix.dims))
        object.__setattr__(self, "index_space", ix)

    @classmethod
    def real_even_grassmannian(cls, k, n):
        """Gr_k(R^n) with k, n even; fixed point Gr_{k/2}(C^{n/2})."""
        if k % 2 or n % 2:
            raise ValueError(f"real even Grassmannian needs even k, n; got {k}, {n}")
        return cls(REAL_EVEN, GrassmannianDescriptor(k // 2, n // 2))

    @classmethod
    def real_even_flag(cls, dims):
        """Fl_D(R^n) with every block even; fixed point Fl_{D/2}(C^{n/2})."""
        dims = tuple(int(d) for d in dims)
        if any(d % 2 for d in dims):
            raise ValueError(f"real even flag needs even blocks, got {dims}")
        return cls(REAL_EVEN, FlagDescriptor(tuple(d // 2 for d in dims)))

    @classmethod
    def quaternionic_grassmannian(cls, k, n):
        """Gr_k(H^n); fixed point Gr_k(C^n)."""
        return cls(QUATERNIONIC, GrassmannianDescriptor(k, n))

    @classmethod
    def quaternionic_flag(cls, dims):
        """Fl_D(H^n); fixed point Fl_D(C^n)."""
        return cls(QUATERNIONIC, FlagDescriptor(tuple(dims)))

    @classmethod
    def octonionic_flag(cls):
        """Complete flags on three letters over the octonions."""
        return cls(OCTONIONIC, FlagDescriptor((1, 1, 1)))

    @property
    def grassmannian_fixed_point(self):
        return isinstance(self.fixed_point, GrassmannianDescriptor)

    def __str__(self):
        if self.kind == OCTONIONIC:
            return "Fl(O^3)"
        ix = self.index_space
        field = "H" if self.kind == QUATERNIONIC else "R"
        if self.grassmannian_fixed_point:
            return f"Gr({decimal_text(ix.k)}, {field}^{decimal_text(ix.n)})"
        return f"Fl{_dims_text(ix.dims)}({field}^{decimal_text(ix.n)})"


def _index_key(space, index):
    """The stored key of an index: its complex key on `space.index_space`.

    Partitions must fit the box. A permutation of 1..m, m <= n, on a flag
    is padded with fixed points to n and stands for its coset. On the
    octonionic flag, as on any complete flag, every coset has one element,
    so that is the permutation itself. Doubledness is not checked here; the
    halving operations enforce it where required.
    """
    ix = space.index_space
    if space.grassmannian_fixed_point:
        lam = normalize_partition(index)
        if not fits_in_box(lam, ix.k, ix.l):
            raise ValueError(f"partition {lam} does not fit {space}")
        return lam
    index = perm_pad(normalize_perm(index), ix.n)
    return FlagClass._key(ix, perm_from_osp(osp_from_perm(index, ix.dims)))


def _halve(space, index):
    """The complex key on the fixed point of a stored index.

    Real even indices are halved (NotADoubleIndex if they are not doubles);
    the others are keys on the fixed point already.
    """
    if space.kind != REAL_EVEN:
        return index
    halve = partition_halve if space.grassmannian_fixed_point else perm_halve
    try:
        return halve(index)
    except NotADouble as exc:
        if not space.grassmannian_fixed_point:
            index = perm_pad(index, space.index_space.n)  # as output writes it
        raise NotADoubleIndex(f"index {index} is not a doubled index") from exc


def _halved(a):
    """The terms of a class as (key on the fixed point, coefficient) pairs.
    Each key is halved (`_halve`) when its term is read, so `kappa` meets
    the faults of the terms in their order."""
    return ((_halve(a.space, key), c) for key, c in a.terms.items())


class HalvingClass(SparseCombination):
    """Rational combination of Schubert classes on a halving space.

    Keys are stored as the complex class on `space.index_space` stores them:
    partitions in its box, or minimal coset representatives without
    trailing fixed points.
    """

    __slots__ = ()
    _scalars = (int, Fraction)
    _zero = Fraction(0)
    _symbol = "sigma"
    _key = staticmethod(_index_key)

    def _rank(self, index):
        return self.space.index_space.classes._rank(index)

    def _product(self, other):
        return real_double_multiply(self, other)


def kappa(a):
    """The halving map on classes.

    Real even: doubled index DI with half I goes to 2^|I| times the complex
    basis class of I. Quaternionic: index I goes to 2^|I| times the complex
    class of I. Octonionic: index w goes to the quaternionic class of w with
    multiplicity 1 (apply kappa again to land in the complex ring).
    """
    space = a.space
    if space.kind == OCTONIONIC:
        target = HalvingSpaceDescriptor.quaternionic_flag((1, 1, 1))
        return HalvingClass._make(target, a.terms)
    fp = space.fixed_point
    ring = fp.classes
    terms = {}
    for key, c in _halved(a):
        c *= 2 ** ring._rank(key)
        if c.denominator != 1:
            raise ValueError(
                f"coefficient {decimal_text(c)} of {key} is not an integer"
            )
        terms[key] = int(c)
    return ring._make(fp, terms)


def kappa_char_class(space, j, bundle=1):
    """Image of the j-th Pontryagin class of a tautological real bundle.

    On a real even Grassmannian the cohomology is generated by Pontryagin
    classes of the tautological subbundle, and the halving map sends p_j of
    the real bundle to 2^j times c_j of the complex counterpart on the fixed
    point space. Bundle 1 is the subspace bundle, bundle 2 the quotient.
    """
    if space.kind != REAL_EVEN or not space.grassmannian_fixed_point:
        raise ValueError(
            "Pontryagin-class transport needs a real even Grassmannian"
        )
    if bundle not in (1, 2):
        raise ValueError("bundle index must be 1 (sub) or 2 (quot)")
    name = "sub" if bundle == 1 else "quot"
    return (2 ** j) * chern_class(name, j, space.fixed_point)


def real_double_multiply(a, b):
    """Product of real classes with doubled indices.

    Halve both classes, multiply once in the complex fixed-point ring, and
    double the labels of the result. The structure constants are exactly
    the complex ones: the 2-power weights of the halving map cancel because
    the complex degree is additive across every surviving term.
    """
    a._check_space(b)
    space = a.space
    if space.kind != REAL_EVEN:
        raise ValueError(f"doubled-index product needs a real even space, not {space}")
    fp = space.fixed_point
    ring = fp.classes
    left, right = (ring._make(fp, dict(_halved(x))) for x in (a, b))
    double = partition_double if space.grassmannian_fixed_point else perm_double
    product = left * right
    return HalvingClass._make(space, {double(k): c for k, c in product.terms.items()})


class SchubertProblem(Record):
    """A list of Schubert conditions with multiplicities on a halving space."""

    __slots__ = _fields = ("space", "conditions")

    def __init__(self, space, conditions):
        fixed = []
        for index, count in conditions:
            count = int(count)
            if count < 1:
                raise ValueError(f"condition count must be positive, got {count}")
            fixed.append((_index_key(space, index), count))
        super().__init__(space, tuple(fixed))


def _multiply_conditions(space, conditions, count_mode):
    """Multiply the conditions of a problem on any space, degree checked first.

    `conditions` are (stored key, count) pairs; each key is halved onto
    `space.fixed_point` (`_halve`, naming its condition if it is not a
    double) and multiplied in `space.fixed_point.classes`. The total degree
    is checked before anything is multiplied: in count mode it must equal
    the dimension and the point-class coefficient is returned; in class
    mode the product class is returned, and a degree above the dimension
    gives the zero class at once. Degree-0 conditions are the unit and are
    skipped. A mismatch message names its terms by `space.kind`.

    A class is the product of every copy of every condition, in input
    order, starting from the first copy. A count is the pairing <X, X L>
    of combination.intersection_number: X holds half of each condition's
    copies (count // 2 of them) and L one more copy of each condition of
    odd count, so X is multiplied once and used twice. It splits only when
    X carries at least a third of the dimension. Otherwise it leaves out
    one copy of the first condition of highest degree, s_u, multiplies
    every other copy in input order, bounded by the dual key u* on a
    Grassmannian, and reads the coefficient at u*.
    """
    fp = space.fixed_point
    ring = fp.classes
    factors, total = [], 0
    for pos, (index, count) in enumerate(conditions, start=1):
        try:
            key = _halve(space, index)
        except NotADoubleIndex as exc:
            raise NotADoubleIndex(f"condition {pos}: {exc}") from None
        degree = ring._rank(key)
        if degree:
            factors.append((ring._make(fp, {key: 1}), degree, count))
            total += count * degree
    dim = fp.complex_dimension
    if count_mode and total != dim:
        what = "halved conditions" if space.kind == REAL_EVEN else "conditions"
        name = "dimension" if space.kind == COMPLEX else "fixed-point dimension"
        raise DimensionMismatch(
            f"{what} fill degree {decimal_text(total)}, but {space} has {name} {decimal_text(dim)}"
        )
    if count_mode:
        # with no factor the space is a point, its own point class
        return intersection_number(factors) if factors else 1
    if total > dim:
        return ring.zero(fp)
    product = multiply_copies([(a, c) for a, _, c in factors])
    return ring.unit(fp) if product is None else product


def real_lower_bound(problem):
    """Certified lower bound for the number of real solutions.

    Every condition index must be doubled; the halved problem must fill the
    complex dimension of the fixed-point space. The returned value is the
    complex intersection number of the halved problem, which the module
    docstring identifies with the absolute signed count of real solutions.
    """
    space = problem.space
    if space.kind != REAL_EVEN:
        raise ValueError(f"real lower bounds need a real even space, not {space}")
    return _multiply_conditions(space, problem.conditions, True)


def quaternionic_count(problem):
    """Exact generic solution count for a quaternionic Schubert problem.

    Equals the complex intersection number of the same conditions on the
    fixed-point space: the halving map matches the two zero-dimensional
    problems term by term, and quaternionic solutions have no sign.
    """
    space = problem.space
    if space.kind != QUATERNIONIC:
        raise ValueError(f"quaternionic counts need a quaternionic space, not {space}")
    return _multiply_conditions(space, problem.conditions, True)


def _corank_rank(space, corank):
    """The rank rho on the fixed point Gr(k, C^n) that a corank condition
    leaves, 0 <= rho = k - corank/2 <= n - k; ValueError names a rule it breaks."""
    if space.kind != REAL_EVEN or not space.grassmannian_fixed_point:
        raise ValueError("corank conditions need a real even Grassmannian")
    if not (isinstance(corank, int) and corank >= 2 and corank % 2 == 0):
        raise ValueError("'corank' must be a positive even integer")
    fp = space.fixed_point
    rho = fp.k - corank // 2
    if rho < 0:
        raise ValueError(f"corank {corank} exceeds the bundle rank {2 * fp.k} of {space}")
    if rho > fp.l:
        raise ValueError(
            f"corank {corank} leaves rank {2 * rho}, above n-k = {2 * fp.l} on {space}"
        )
    return rho


def real_degeneracy_lower_bound(space, maps, corank=2):
    """Lower bound for real rank-drop loci of generic bundle maps.

    Each map contributes the locus where a generic endomorphism-style map
    drops rank by the given (even) corank; halving turns this into the
    complex locus of half the corank for the tautological map on the
    fixed-point Grassmannian, whose class is a determinant in the Chern
    series of the bundle difference. The corank passes the rule problem
    files are read by (`_corank_rank`) before anything is counted.
    """
    rho = _corank_rank(space, corank)
    fp = space.fixed_point
    return degeneracy_count(fp, fp.k, fp.l, rho, maps)


_PROVENANCE = {
    "count": (
        "expanded the condition product in the Schubert basis and read off "
        "the coefficient of the point class"
    ),
    "class": (
        "expanded the condition product in the Schubert basis of the "
        "ambient space"
    ),
    "corank": (
        "halved each rank-drop condition and evaluated the "
        "determinantal locus class on the fixed-point Grassmannian; "
        "the complex count certifies the real lower bound"
    ),
    REAL_EVEN: (
        "halved the doubled conditions to a complex problem on the "
        "fixed-point space; its intersection number certifies the "
        "real lower bound"
    ),
    QUATERNIONIC: (
        "the halving map matches the quaternionic problem with the "
        "complex problem on the fixed-point space, solution for "
        "solution"
    ),
    OCTONIONIC: (
        "transported the conditions to the quaternionic three-step "
        "flag carrier and counted there via the complex fixed-point "
        "space"
    ),
}


def solve(parsed):
    """Solve one parsed problem (see `serialize.parse_problem`).

    Returns (value, provenance): the count or lower bound as an integer, or
    the product class in class mode. A corank problem is a rank-drop bound;
    every index problem, on any space, is one `_multiply_conditions` call
    on the stored keys, which are already checked.
    """
    space = parsed.space
    if parsed.degeneracy is not None:
        corank, count = parsed.degeneracy
        value = real_degeneracy_lower_bound(space, count, corank=corank)
        return value, _PROVENANCE["corank"]
    value = _multiply_conditions(space, parsed.conditions, parsed.mode != "class")
    return value, _PROVENANCE[parsed.mode if space.kind == COMPLEX else space.kind]
