"""Cohomology of complex Grassmannians in the Schubert basis.

Classes on Gr_k(C^n) are integer combinations of Schubert classes indexed
by partitions inside the k x (n-k) box. A product runs the LR strip pass
once per term of one factor, seeded with the whole other class and capped
at the box, so nothing that leaves the box is ever built; integration
reads off the coefficient of the full-box (point) class. A count pairs
half of its product with the rest through the rotated box complement, or
reads a product bounded by the complement of its largest condition at
that complement (combination.intersection_number).
"""

from .combination import COMPLEX, Record, SparseCombination, decimal_text, intersection_number
from .errors import (
    BoxOverflow,
    DegreeOutOfRange,
    DimensionMismatch,
    MissingChernDegree,
)
from .indexing import fits_in_box, normalize_partition, partition_size
from .schur import _lr_product, ring_determinant


class GrassmannianDescriptor(Record):
    """Gr_k(C^n): k-dimensional subspaces of C^n."""

    __slots__ = _fields = ("k", "n")
    kind = COMPLEX
    fixed_point = index_space = property(lambda self: self)
    classes = property(lambda self: GrassmannClass)

    def __init__(self, k, n):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
        super().__init__(k, n)

    @property
    def l(self):
        return self.n - self.k

    @property
    def complex_dimension(self):
        return self.k * self.l

    def __str__(self):
        return f"Gr({decimal_text(self.k)}, C^{decimal_text(self.n)})"


class GrassmannClass(SparseCombination):
    """Sparse integer combination of Schubert classes on a fixed Grassmannian."""

    __slots__ = ()
    _rank = staticmethod(partition_size)

    @staticmethod
    def _key(space, lam):
        lam = normalize_partition(lam)
        if not fits_in_box(lam, space.k, space.l):
            raise BoxOverflow(
                f"partition {lam} does not fit in the {space.k}x{space.l} box"
            )
        return lam

    @staticmethod
    def _dual_key(space, lam):
        # the rotated box complement: the rows of lam that fill the box
        # would leave its trailing zeros
        l = space.l
        return (l,) * (space.k - len(lam)) + tuple(l - p for p in reversed(lam) if p < l)

    def _product(self, other):
        return gr_multiply(self, other)

    def _product_within(self, other, top):
        # only top's dual pairs with s_top, and a product of a shape that
        # does not fit inside the dual never fits inside it
        self._check_space(other)
        within = None if top is None else self._dual_key(self.space, top)
        return GrassmannClass._make(self.space, _lr_product(self, other, within))


def gr_multiply(a, b):
    """Product in H*(Gr_k(C^n)): the LR product capped at the k x l box
    (schur._lr_product), so nothing that leaves the box is ever built."""
    a._check_space(b)
    return GrassmannClass._make(a.space, _lr_product(a, b))


def gr_integrate(a):
    """Coefficient of the point class sigma_{(l^k)}, the dual of the unit.

    Degrees below the top integrate to zero; for inhomogeneous input the
    top-degree part alone contributes.
    """
    return a.terms.get(GrassmannClass._dual_key(a.space, ()), 0)


def poincare_dual(lam, space):
    """Rotated box complement; the unique partner pairing to 1."""
    return GrassmannClass._dual_key(space, GrassmannClass._key(space, lam))


def chern_class(bundle, i, space):
    """Chern class of a tautological bundle as a Schubert combination.

    bundle "sub" is the rank-k subspace bundle, "quot" the rank-l quotient.
    The quotient classes are single rows, c_i(Q) = sigma_(i); the subspace
    classes are signed columns, c_i(S) = (-1)^i sigma_(1^i), which is the
    unique choice making the Whitney sum c(S)c(Q) collapse to 1.
    """
    if bundle not in ("sub", "quot"):
        raise ValueError(f"bundle must be 'sub' or 'quot', got {bundle!r}")
    rank = space.k if bundle == "sub" else space.l
    if not 0 <= i <= rank:
        raise DegreeOutOfRange(
            f"c_{i} of rank-{rank} bundle {bundle!r} on {space}"
        )
    if i == 0:
        return GrassmannClass.unit(space)
    if bundle == "quot":
        return GrassmannClass.basis(space, (i,))
    sign = -1 if i % 2 else 1
    return GrassmannClass(space, {(1,) * i: sign})


def giambelli(lam, space):
    """Determinant of single-row classes, evaluated inside the ring.

    Entry (i, j) is the row class of length lam_i - i + j, with length 0
    meaning the unit and lengths outside [0, l] meaning zero. Only the row
    lengths in that band are built, never all l + 1. Expanding the
    determinant by ring arithmetic must land back on the basis class.
    """
    lam = GrassmannClass._key(space, lam)
    d, l = len(lam), space.l
    mat = []
    for i, part in enumerate(lam):
        # only 0 <= part - i + j <= l is nonzero: a band of at most l + 1
        row = [0] * d
        for j in range(max(0, i - part), min(d, l - part + i + 1)):
            row[j] = chern_class("quot", part - i + j, space)
        mat.append(row)
    return ring_determinant(mat, GrassmannClass.unit(space))


def _check_ranks(e, f, rho):
    """Bundle ranks e, f and a rank bound rho that a map E -> F can have."""
    for name, rank in (("e", e), ("f", f)):
        if rank < 0:
            raise ValueError(f"need {name} >= 0, got {name}={rank}")
    if rho < 0 or rho > min(e, f):
        raise ValueError(f"need 0 <= rho <= min(e, f), got rho={rho}")


def thom_porteous(e, f, rho, c):
    """Degeneracy-locus class for a generic map E -> F of ranks e, f.

    The locus where the rank drops to at most rho has class equal to the
    (e-rho) x (e-rho) determinant with (i, j) entry the degree f-rho+j-i
    piece of the total Chern class of the virtual bundle F - E. That series
    is passed in as `c`, a sequence of classes indexed by degree; negative
    degrees are zero and any positive degree the determinant touches must
    be present.
    """
    if not c:
        raise MissingChernDegree("need at least the degree-0 Chern class")
    space = c[0].space
    _check_ranks(e, f, rho)
    d = e - rho
    zero = GrassmannClass.zero(space)

    def entry(deg):
        if deg < 0:
            return zero
        if deg >= len(c):
            raise MissingChernDegree(
                f"Chern series entry of degree {deg} not supplied"
            )
        return c[deg]

    mat = [[entry(f - rho + j - i) for j in range(d)] for i in range(d)]
    return ring_determinant(mat, GrassmannClass.unit(space))


def tautological_chern_difference(space, max_degree):
    """Chern series of the virtual bundle Q - S, degrees 0..max_degree.

    The Whitney sum c(S) c(Q) = 1 makes c(S)^{-1} = c(Q), so
    c(Q - S) = c(Q)^2: the degree-d piece is the sum of sigma_i sigma_{d-i}
    over the row classes sigma_i = c_i(Q).
    """
    l = space.l
    rows = [chern_class("quot", i, space) for i in range(l + 1)]
    return [
        sum(
            (rows[i] * rows[d - i] for i in range(max(0, d - l), min(d, l) + 1)),
            GrassmannClass.zero(space),
        )
        for d in range(max_degree + 1)
    ]


def degeneracy_count(space, e, f, rho, m):
    """Count rank-at-most-rho loci conditions imposed m times.

    Integrates the m-th power of the Thom-Porteous class of the tautological
    map S -> Q on the given Grassmannian, by pairing half of the m copies
    with the rest (combination.intersection_number). When the rank bound
    is vacuous (rho reaches e or f) the locus is the whole space and the
    integral of the unit applies; otherwise m times the locus codimension
    must exhaust the dimension exactly.
    """
    return degeneracy_count_and_locus(space, e, f, rho, m)[0]


def degeneracy_count_and_locus(space, e, f, rho, m):
    """`degeneracy_count` and the locus class it integrates; at codimension
    0 the matrix is unitriangular, so the locus is the unit, unexpanded."""
    _check_ranks(e, f, rho)
    if m < 0:
        raise ValueError(f"need a nonnegative number of maps, got {m}")
    codim = (e - rho) * (f - rho)
    if codim == 0:
        unit = GrassmannClass.unit(space)
        return gr_integrate(unit), unit
    if m * codim != space.complex_dimension:
        raise DimensionMismatch(
            f"{decimal_text(m)} conditions of codimension {decimal_text(codim)} "
            f"do not fill dim {decimal_text(space.complex_dimension)} of {space}"
        )
    series = tautological_chern_difference(space, e + f - 2 * rho - 1)
    locus = thom_porteous(e, f, rho, series)
    return intersection_number([(locus, codim, m)]), locus
