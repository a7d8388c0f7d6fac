"""Index combinatorics: partitions, ordered set partitions, permutations.

Everything here is a plain immutable tuple.  Partitions are weakly
decreasing tuples of positive ints (no trailing zeros).  An ordered set
partition (OSP) of {1..N} is a tuple of blocks, each block a sorted
tuple of ints.  Permutations are one-line tuples (w(1), ..., w(n)).

Only what the engine calls is here; the helpers that only the oracles
use (partitions in a box, codes, reduced words, composition) live in
`selftest`.
"""

from .errors import NotADouble

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def normalize_partition(parts):
    """Validate and canonicalize a partition given as any iterable."""
    lam = tuple(int(p) for p in parts)
    if any(p < 0 for p in lam):
        raise ValueError("partition parts must be nonnegative: %r" % (lam,))
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing: %r" % (lam,))
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def partition_size(lam):
    return sum(lam)


def partition_conjugate(lam):
    """Transpose of the Young diagram, in time linear in its rows and columns."""
    cols = []
    # from the bottom row up: the columns this row adds have its height
    for i in range(len(lam) - 1, -1, -1):
        cols.extend([i + 1] * (lam[i] - len(cols)))
    return tuple(cols)


def partition_contains(outer, inner):
    """True when the diagram of inner sits inside the diagram of outer."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def fits_in_box(lam, rows, cols):
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def partition_double(lam):
    """Subdivide every box of the diagram into a 2x2 block.

    Each part is doubled and listed twice, so the size grows by a
    factor of four: (2, 1) -> (4, 4, 2, 2).
    """
    out = []
    for p in lam:
        out.append(2 * p)
        out.append(2 * p)
    return tuple(out)


def partition_halve(lam):
    """Inverse of partition_double.  Raises NotADouble if impossible."""
    if len(lam) % 2 != 0:
        raise NotADouble("odd number of parts: %r" % (lam,))
    out = []
    for i in range(0, len(lam), 2):
        a, b = lam[i], lam[i + 1]
        if a != b or a % 2 != 0:
            raise NotADouble("rows %d and %d do not form a doubled pair in %r" % (i + 1, i + 2, lam))
        out.append(a // 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# ordered set partitions
# ---------------------------------------------------------------------------


def normalize_osp(blocks):
    """Validate blocks as an ordered set partition of {1..N}."""
    osp = tuple(tuple(sorted(int(x) for x in b)) for b in blocks)
    seen = set()
    for b in osp:
        if not b:
            raise ValueError("empty block in ordered set partition")
        for x in b:
            if x < 1 or x in seen:
                raise ValueError("blocks must partition {1..N}: %r" % (blocks,))
            seen.add(x)
    n = sum(len(b) for b in osp)
    if seen != set(range(1, n + 1)):
        raise ValueError("blocks must cover {1..N} exactly: %r" % (blocks,))
    return osp


def osp_block_sizes(osp):
    return tuple(len(b) for b in osp)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def normalize_perm(w):
    w = tuple(int(x) for x in w)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError("not a permutation in one-line notation: %r" % (w,))
    return w


def perm_strip(w):
    """Drop trailing fixed points: the stable form of w."""
    n = len(w)
    while n > 0 and w[n - 1] == n:
        n -= 1
    return w[:n]


def perm_pad(w, n):
    """Extend w with fixed points up to length n."""
    if len(w) > n:
        raise ValueError("cannot pad %r down to length %d" % (w, n))
    return w + tuple(range(len(w) + 1, n + 1))


def perm_length(w):
    """Coxeter length: number of inversions, in O(n log n).

    Reading w from the right, a Fenwick tree over the values counts the
    entries already read (those to the right) that are smaller.
    """
    size = max(w, default=0) + 1
    tree = [0] * size
    total = 0
    for v in reversed(w):
        i = v - 1
        while i:
            total += tree[i]
            i &= i - 1
        while v < size:
            tree[v] += 1
            v += v & -v
    return total


# ---------------------------------------------------------------------------
# OSP <-> minimal coset representative
# ---------------------------------------------------------------------------


def perm_from_osp(osp):
    """Concatenate the sorted blocks: the minimal coset representative."""
    return tuple(x for b in osp for x in b)


def osp_from_perm(w, dims):
    """Cut the one-line notation of w into blocks of the given sizes."""
    if sum(dims) != len(w):
        raise ValueError("block sizes %r do not sum to %d" % (dims, len(w)))
    osp = []
    pos = 0
    for d in dims:
        osp.append(tuple(sorted(w[pos:pos + d])))
        pos += d
    return tuple(osp)


def perm_double(w):
    """Replace every letter i by the pair 2i-1, 2i.

    The minimal coset representative of an OSP goes to that of the OSP
    with every letter so replaced, so doubling commutes with cutting into
    blocks.
    """
    return tuple(y for x in w for y in (2 * x - 1, 2 * x))


def perm_halve(w):
    """Inverse of perm_double.  Raises NotADouble if impossible."""
    odd = w[0::2]
    if len(w) % 2 or w[1::2] != tuple(x + 1 for x in odd) or any(x % 2 == 0 for x in odd):
        raise NotADouble("%r does not list pairs 2i-1, 2i" % (w,))
    return tuple((x + 1) // 2 for x in odd)


def is_minimal_rep(w, dims):
    """True when w is increasing inside every block of dims, read up to
    len(w): the fixed points that would pad w always are."""
    pos, last = 0, len(w) - 1
    for d in dims:
        end = pos + d - 1
        for i in range(pos, end if end < last else last):
            if w[i] > w[i + 1]:
                return False
        pos += d
    return True
