"""Schur expansions and Littlewood-Richardson arithmetic.

The multiplication kernel counts Littlewood-Richardson skew tableaux
directly.  A tableau of shape nu/lam and content mu is filled in the
order of its reverse reading word (each row right to left, rows top to
bottom), which lets every constraint be checked the moment a value is
placed: rows stay weakly increasing, columns strictly increasing, the
content never exceeds mu, and every prefix of the reading word has at
least as many i's as (i+1)'s.

The independent reference for products is oracle_schur_polynomial: the
actual Schur polynomial in n variables, built by enumerating
semistandard tableaux as chains of horizontal strips (one strip per
letter) and aggregating monomials by weight.  It shares no code with
the tableau counter above.
"""

from functools import lru_cache

from .combination import SparseCombination
from .indexing import (
    normalize_partition,
    partition_contains,
    partition_size,
)
from .poly import SparsePolynomial

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
    if not mu:
        return 1
    return _lr_count(lam, mu, nu)


@lru_cache(maxsize=None)
def _lr_count(lam, mu, nu):
    nrows = len(nu)
    lamp = lam + (0,) * (nrows - len(lam))
    cells = []
    for r in range(nrows):
        for c in range(nu[r] - 1, lamp[r] - 1, -1):
            cells.append((r, c))
    nvals = len(mu)
    counts = [0] * nvals
    grid = [dict() for _ in range(nrows)]

    def rec(i):
        if i == len(cells):
            return 1
        r, c = cells[i]
        hi = grid[r][c + 1] if c + 1 < nu[r] else nvals
        lo = grid[r - 1][c] + 1 if r > 0 and c >= lamp[r - 1] else 1
        total = 0
        row = grid[r]
        for v in range(lo, hi + 1):
            iv = v - 1
            if counts[iv] >= mu[iv]:
                continue
            if v > 1 and counts[iv - 1] <= counts[iv]:
                continue
            counts[iv] += 1
            row[c] = v
            total += rec(i + 1)
            counts[iv] -= 1
        if c in row:
            del row[c]
        return total

    return rec(0)


def _bounded_partitions(total, low, width, maxrows):
    """Partitions of the given size with row i at least low[i], first part
    at most width, at most maxrows rows."""
    results = []

    def rec(i, prev, remaining, acc):
        if remaining == 0 and all(low[j] == 0 for j in range(i, maxrows)):
            results.append(tuple(acc))
            return
        if i == maxrows:
            return
        lo = low[i]
        hi = min(prev, remaining - sum(low[i + 1:]))
        for p in range(hi, max(lo, 1) - 1, -1):
            rec(i + 1, p, remaining - p, acc + [p])

    rec(0, width, total, [])
    return results


@lru_cache(maxsize=None)
def expand_basis_product(lam, mu, rows=None, cols=None):
    """s_lam * s_mu as a tuple of (nu, coefficient) pairs.

    When rows/cols are given, candidates outside the box are skipped
    (exactly the quotient taken by Grassmannian multiplication).
    """
    total = partition_size(lam) + partition_size(mu)
    width = lam[0] + mu[0] if lam and mu else (lam or mu or (0,))[0]
    if cols is not None:
        width = min(width, cols)
    maxrows = len(lam) + len(mu)
    if rows is not None:
        maxrows = min(maxrows, rows)
    if total == 0:
        return (((), 1),)
    if maxrows == 0 or width == 0 or total > maxrows * width:
        return ()
    low = [max(lam[i] if i < len(lam) else 0, mu[i] if i < len(mu) else 0)
           for i in range(maxrows)]
    out = []
    for nu in _bounded_partitions(total, low, width, maxrows):
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)


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

    @staticmethod
    def _unit_key(space):
        return ()

    def _product(self, other):
        return schur_multiply(self, other)

    @classmethod
    def one(cls):
        return cls.unit()

    @classmethod
    def basis(cls, lam):
        return cls({lam: 1})

    def support(self):
        return set(self.terms)

    def degrees(self):
        return {partition_size(lam) for lam in self.terms}


def schur_multiply(a, b):
    """Product of two Schur expansions, expanded in the Schur basis."""
    out = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            for nu, c in expand_basis_product(lam, mu):
                out[nu] = out.get(nu, 0) + ca * cb * c
    return SchurExpansion._make(None, out)


# ---------------------------------------------------------------------------
# Pieri rules
# ---------------------------------------------------------------------------


def pieri(lam, p, kind="row"):
    """Multiply s_lam by a full row (h_p) or a full column (e_p).

    Row kind adds a horizontal strip of p boxes, column kind a vertical
    strip.  Independent of the tableau counter, so it doubles as a
    cross-check on products with one-line or one-column factors.
    """
    lam = normalize_partition(lam)
    if p < 0:
        raise ValueError("strip size must be nonnegative")
    if kind not in ("row", "column"):
        raise ValueError("kind must be 'row' or 'column'")
    if p == 0:
        return SchurExpansion.basis(lam)
    out = {}
    if kind == "row":
        nrows = len(lam) + 1
        lamp = lam + (0,) * (nrows - len(lam))

        def rec(i, remaining, acc):
            if i == nrows:
                if remaining == 0:
                    out[normalize_partition(acc)] = 1
                return
            lo = lamp[i]
            hi = acc[i - 1] if i > 0 else lamp[0] + remaining
            hi = min(hi, lamp[i] + remaining)
            # stay a horizontal strip: row i cannot pass the row above it
            if i > 0:
                hi = min(hi, lam[i - 1] if i - 1 < len(lam) else 0)
                hi = max(hi, lo)
            for v in range(lo, hi + 1):
                rec(i + 1, remaining - (v - lo), acc + [v])

        rec(0, p, [])
    else:
        nrows = len(lam) + p
        lamp = lam + (0,) * (nrows - len(lam))

        def rec(i, remaining, acc):
            if i == nrows:
                if remaining == 0:
                    out[normalize_partition(acc)] = 1
                return
            for add in (1, 0) if remaining > 0 else (0,):
                v = lamp[i] + add
                if i > 0 and v > acc[i - 1]:
                    continue
                rec(i + 1, remaining - add, acc + [v])

        rec(0, p, [])
    return SchurExpansion(out)


# ---------------------------------------------------------------------------
# determinants over a commutative ring
# ---------------------------------------------------------------------------


def ring_determinant(mat, one):
    """Determinant by column-choice search, pruning zero entries.

    Entries must support +, unary -, * and truthiness.  `one` is the
    multiplicative unit, returned for the empty matrix.
    """
    n = len(mat)
    if n == 0:
        return one
    result = None

    def rec(r, used, acc, sign):
        nonlocal result
        if r == n:
            term = acc if sign > 0 else -acc
            result = term if result is None else result + term
            return
        for c in range(n):
            if used >> c & 1:
                continue
            e = mat[r][c]
            if not e:
                continue
            flips = bin(used >> (c + 1)).count("1")
            rec(r + 1, used | (1 << c), acc * e, sign * (-1) ** flips)

    rec(0, 0, one, 1)
    return result if result is not None else one - one


def jacobi_trudi(lam):
    """Determinant of complete homogeneous pieces h_{lam_i - i + j}.

    Evaluates inside the ring of Schur expansions and lands back on
    s_lam, which makes it a second, determinant-shaped route to the
    same basis element.
    """
    lam = normalize_partition(lam)
    n = len(lam)
    if n == 0:
        return SchurExpansion.one()

    def h(p):
        if p < 0:
            return SchurExpansion.zero()
        if p == 0:
            return SchurExpansion.one()
        return SchurExpansion.basis((p,))

    mat = [[h(lam[i] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)]
    return ring_determinant(mat, SchurExpansion.one())


# ---------------------------------------------------------------------------
# the tableau-polynomial oracle
# ---------------------------------------------------------------------------

_oracle_cache = {}


def _strips_below(lam):
    """All kappa with lam/kappa a horizontal strip (kappa interlaces lam)."""
    k = len(lam)
    out = []

    def rec(i, acc):
        if i == k:
            out.append(tuple(x for x in acc if x))
            return
        lo = lam[i + 1] if i + 1 < k else 0
        hi = min(lam[i], acc[-1]) if acc else lam[i]
        for v in range(lo, hi + 1):
            rec(i + 1, acc + [v])

    rec(0, [])
    return out


def _schur_weights(lam, n):
    """Weight-multiset of semistandard tableaux of shape lam, entries <= n.

    A tableau is the chain of shapes occupied by entries <= i; each step
    adds a horizontal strip.  Recursing on the largest entry aggregates
    tableaux sharing a weight, so the cost scales with the number of
    distinct monomials rather than the number of tableaux.
    """
    key = (lam, n)
    hit = _oracle_cache.get(key)
    if hit is not None:
        return hit
    if not lam:
        out = {(0,) * n: 1}
    elif n == 0:
        out = {}
    else:
        total = sum(lam)
        out = {}
        for kappa in _strips_below(lam):
            p = total - sum(kappa)
            for wt, c in _schur_weights(kappa, n - 1).items():
                wkey = wt + (p,)
                out[wkey] = out.get(wkey, 0) + c
    _oracle_cache[key] = out
    return out


def oracle_schur_polynomial(lam, n):
    """The Schur polynomial s_lam(x_1..x_n) from tableau enumeration."""
    lam = normalize_partition(lam)
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    return SparsePolynomial(_schur_weights(lam, n))


def oracle_cache_clear():
    """Release cached tableau weights (they can get large in high degree)."""
    _oracle_cache.clear()
    _lr_count.cache_clear()
    expand_basis_product.cache_clear()
