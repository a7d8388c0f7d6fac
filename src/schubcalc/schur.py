"""Schur expansions and Littlewood-Richardson arithmetic.

One kernel computes Littlewood-Richardson numbers: the strip pass.
Starting from lam, the letters of mu are added one at a time, each as a
horizontal strip under a cap on every row.  The lattice condition is
checked row by row as a strip is placed: through each row, letter i+1
occurs at most as often as letter i does in the rows above.  Partial
tableaux with the same shape and the same last strip are merged, so the
work follows the distinct shapes inside the caps rather than the tableaux
(Fulton, Young Tableaux, ch. 5; the scheme of Buch's lrcalc).

The pass starts from a layer of seed shapes with coefficients, so one
pass can multiply a whole class by s_mu.  Both Schur-basis products go
through _lr_product: one pass per term of the cheaper factor, seeded with
every term of the other, so partial tableaux from different seeds merge
as well.  _lr_product reads its caps from its factors: the rows and
their number are capped at the sums of the factors' widest rows and
longest lengths, which cuts nothing off, and on a Grassmannian
(grassmann.gr_multiply) both are clipped to the box.  A single
coefficient (lr_coefficient) caps row r at nu_r, so only shapes inside
nu are visited, and drops a shape whose row i is still short of nu_i
once letter i is placed; by c(lam, mu; nu) = c(mu, lam; nu) =
c(lam', mu'; nu') the letters come from the factor with the fewest rows.

Every letter is placed inside the pass loop itself, which builds every
new shape by tuple slicing, in one of two ways.  A one-box letter (every
letter of s1, s11 and s111, the second of s21) takes one scan of the
rows below the previous letter's top row, or of every row for the first
letter.  A letter of two or more boxes is spread over the rows' rooms by
a walk over the compositions of its size, each row bounded by the
lattice condition.

The former kernels, a per-box tableau count, one such count per
candidate nu, the Grassmannian product one pair of terms at a time and
the strip pass that took every letter's strips from a separate strip
enumeration (now tests/lr_oracle.py:_reference_strips), are kept
in tests/lr_oracle.py as oracles for the strip pass, next to the Pieri
rule for one-row and one-column factors.  The independent
references for all of them, the tableau Schur polynomial and the
Jacobi-Trudi determinant, live in `selftest`.
"""

from .combination import SparseCombination
from .indexing import (
    normalize_partition,
    partition_conjugate,
    partition_contains,
    partition_size,
)

# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients
# ---------------------------------------------------------------------------


def lr_coefficient(lam, mu, nu):
    """Multiplicity of s_nu in s_lam * s_mu."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    if partition_size(lam) + partition_size(mu) != partition_size(nu):
        return 0
    if not partition_contains(nu, lam) or not partition_contains(nu, mu):
        return 0
    if not lam or not mu:
        return 1
    # c(lam, mu; nu) = c(mu, lam; nu) = c(lam', mu'; nu'), and the pass adds
    # one letter per row of mu: take the letters from the factor with fewest
    # rows, but conjugate only when nu' is no longer than nu, so the work
    # follows the lengths of the inputs and not the size of a row
    if min(lam[0], mu[0]) < min(len(lam), len(mu)) and nu[0] <= len(nu):
        lam, mu, nu = (partition_conjugate(p) for p in (lam, mu, nu))
    if len(mu) > len(lam):
        lam, mu = mu, lam
    return _strip_pass({lam: 1}, mu, nu, True).get(nu, 0)


def _strip_pass(seeds, mu, caps, fill):
    """{nu: sum of c * c_{lam,mu}^nu over the seeds lam: c} for every nu
    with at most caps[r] boxes in row r; with `fill`, only nu = caps is
    wanted.

    Starting from every seed shape at once, the letters of mu are added one
    at a time, each as a horizontal strip that keeps the lattice condition,
    and partial tableaux that reach the same shape with the same last strip
    are merged with their multiplicities added, whichever seed they came
    from.  A state whose multiplicity cancels to zero is not extended.

    A layer between letters is keyed by (shape, last strip); a one-box
    strip is kept as its row.  The last layer is keyed by the shape alone
    and returned as it is.  A letter is placed in one of two ways, both
    only in the rows below the previous letter's top row (every row for
    the first letter) and wherever the cap and the row above leave room:

    * a one-box letter by one scan of those rows;
    * a letter of two or more boxes by a walk over the compositions of
      its size into the rooms of those rows, where through each row it
      holds at most `seen` boxes, the previous strip's boxes in the rows
      above (the lattice condition; for the first letter, its size).

    The new shapes are built by tuple slicing.
    """
    last = len(mu) - 1
    ncaps = len(caps)
    layer = seeds
    for i, size in enumerate(mu):
        keep = i < last
        nxt = {}
        for state, mult in layer.items():
            if not mult:
                continue
            # letter i goes below the previous letter's top row (the lattice
            # condition), anywhere for the first letter
            if i:
                shape, prev = state
                start = (prev if mu[i - 1] == 1 else prev[0][0]) + 1
            else:
                shape, prev, start = state, (), 0
            n = len(shape)
            stop = n + 1 if n < ncaps else ncaps
            if start >= stop:
                continue
            above = shape[start - 1] if start else caps[0]
            # each branch adds mult to nxt at every new shape; letter i lands
            # in row i or below and the lattice condition keeps later letters
            # below row i, so with `fill` a shape whose row i is not caps[i]
            # is dropped
            if size == 1:
                for r in range(start, stop):
                    here = shape[r] if r < n else 0
                    if above > caps[r]:
                        above = caps[r]
                    if above > here:
                        new = shape[:r] + (here + 1,) + shape[r + 1:]
                        if not fill or new[i] == caps[i]:
                            key = (new, r) if keep else new
                            nxt[key] = nxt.get(key, 0) + mult
                    above = here
            else:
                # seen: the previous strip's boxes in the rows above row r,
                # which bounds this letter's boxes through row r; the first
                # letter is bounded by its size alone.  short: the boxes
                # that bound keeps out of rows[:j + 1]
                seen = 0 if i else size
                rows, k, m = [], 0, len(prev)
                for r in range(start, stop):
                    while k < m and prev[k][0] < r:
                        seen += prev[k][1]
                        k += 1
                    here = shape[r] if r < n else 0
                    if above > caps[r]:
                        above = caps[r]
                    if above > here:
                        room = above - here if above - here < seen else seen
                        rows.append((r, here, room, size - seen if seen < size else 0))
                    above = here
                # tail[j]: the room in rows[j:]
                tail = [0] * (len(rows) + 1)
                for j in range(len(rows) - 1, -1, -1):
                    tail[j] = tail[j + 1] + rows[j][2]
                stack = [(0, size, shape, ())]
                while stack:
                    first, left, new, strip = stack.pop()
                    for j in range(first, len(rows)):
                        if tail[j] < left:
                            break
                        r, here, room, short = rows[j]
                        lo = left - tail[j + 1]
                        hi = left - short
                        for a in range(lo if lo > 1 else 1, (room if room < hi else hi) + 1):
                            grown = new[:r] + (here + a,) + new[r + 1:]
                            if a < left:
                                more = strip + ((r, a),) if keep else None
                                stack.append((j + 1, left - a, grown, more))
                            elif not fill or grown[i] == caps[i]:
                                key = (grown, strip + ((r, a),)) if keep else grown
                                nxt[key] = nxt.get(key, 0) + mult
        layer = nxt
    return layer


def _lr_product(a, b, within=None):
    """{nu: coefficient} of the product of two Schur-basis classes, or of
    its terms inside the partition `within` when one is given.

    No nu in s_lam * s_mu is wider than lam_1 + mu_1 or longer than
    len(lam) + len(mu), so the caps come from the factors, clipped to the
    box of a Grassmannian space; `within` is the caps when it is given, and
    seeds not inside it are dropped, since nu contains lam.  One strip pass
    per term mu of the cheaper factor (fewer terms, then lower degree),
    seeded with every term of the other scaled by mu's coefficient, so
    partial tableaux merge across terms.
    """
    if not a.terms or not b.terms:
        return {}
    if a._cheaper_than(b):
        a, b = b, a
    ta, tb = a.terms, b.terms
    if within is None:
        width = sum(max(ta)[:1]) + sum(max(tb)[:1])  # the largest key is widest
        height = max(map(len, ta)) + max(map(len, tb))
        if a.space is not None:  # a SchurExpansion has no box
            width, height = min(width, a.space.l), min(height, a.space.k)
        caps = (width,) * height
    else:
        caps = within
        ta = {lam: c for lam, c in ta.items() if partition_contains(within, lam)}
    out = {}
    for mu, c in tb.items():
        seeds = {lam: c * ca for lam, ca in ta.items()}
        for nu, m in _strip_pass(seeds, mu, caps, False).items():
            out[nu] = out.get(nu, 0) + m
    return out


# ---------------------------------------------------------------------------
# Schur expansions
# ---------------------------------------------------------------------------


class SchurExpansion(SparseCombination):
    """Finite integer combination of Schur basis elements s_lam; no space."""

    __slots__ = ()
    _rank = staticmethod(partition_size)

    def __init__(self, terms=None):
        super().__init__(None, terms or {})

    @staticmethod
    def _key(space, lam):
        return normalize_partition(lam)

    def _product(self, other):
        return schur_multiply(self, other)

    @classmethod
    def one(cls):
        return cls.unit()

    @classmethod
    def basis(cls, lam):
        return cls({lam: 1})


def schur_multiply(a, b):
    """Product of two Schur expansions, expanded in the Schur basis."""
    return SchurExpansion._make(None, _lr_product(a, b))


# ---------------------------------------------------------------------------
# determinants over a commutative ring
# ---------------------------------------------------------------------------


def jacobi_trudi_matrix(lam, h, top=None):
    """The matrix [h(lam_i - i + j)] of a partition lam, for ring_determinant:
    h is asked, row by row, only for the degrees 0..top (every degree from
    0 when top is None), and the entries of other degrees are 0."""
    d, mat = len(lam), []
    for i, part in enumerate(lam):
        row = [0] * d
        end = d if top is None else min(d, top - part + i + 1)
        for j in range(max(0, i - part), end):
            row[j] = h(part - i + j)
        mat.append(row)
    return mat


def ring_determinant(mat, one):
    """Determinant by row-by-row expansion, one signed minor per set of
    used columns (a bit mask), so paths that fill the same columns merge:
    at most 2^n minors instead of n! products.  Zero entries, zero minors
    and column sets that miss a column no later row can fill are dropped,
    which keeps near-triangular matrices to few states.

    Entries must support +, unary -, * and truthiness.  `one` is the
    multiplicative unit, returned for the empty matrix.
    """
    n = len(mat)
    nonzero = [[(c, 1 << c, e) for c, e in enumerate(row) if e] for row in mat]
    last = {c: r for r, entries in enumerate(nonzero) for c, _, _ in entries}
    closes = [0] * n  # closes[r]: the columns no row after r can fill
    for c in range(n):
        closes[last.get(c, 0)] |= 1 << c
    minors = {0: one}
    required = 0  # columns that every surviving set must already contain
    for r, entries in enumerate(nonzero):
        required |= closes[r]
        grown = {}
        for used, minor in minors.items():
            for c, bit, e in entries:
                if used & bit:
                    continue
                term = minor * e
                if bin(used >> (c + 1)).count("1") & 1:
                    term = -term
                key = used | bit
                grown[key] = grown[key] + term if key in grown else term
        minors = {
            used: m for used, m in grown.items() if m and required & ~used == 0
        }
        if not minors:
            return one - one
    return minors[(1 << n) - 1]

