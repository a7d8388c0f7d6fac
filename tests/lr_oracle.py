"""The former Littlewood-Richardson kernels, kept as test oracles.

`count_lr_tableaux` counts LR tableaux of shape nu/lam and content mu one
box at a time; it was `lr_coefficient`'s kernel before the strip pass
capped by nu replaced it.  `expand_by_candidates` lists every partition
nu that could occur in s_lam * s_mu (inside the box when one is given)
and counts each with `count_lr_tableaux`; it was the product kernel
before the one-pass strip expansion.  `pieri` multiplies by a single row
or column, the case the Pieri rule settles without tableaux.  None of
them shares code with `schubcalc.schur`'s strip pass.

`gr_multiply_by_pairs` and `schur_multiply_by_pairs` multiply two
classes one pair of terms at a time, each pair through
`expand_by_candidates` (inside the box on a Grassmannian).  The products
they check run one strip pass per term of one factor, seeded with the
whole other class; these share neither the strip pass nor the seeding
and merging across terms.

`strip_pass_reference` is the strip pass as it ran before every letter
was placed inside the pass loop: every letter's strips come from
`_reference_strips`, the new shapes are built as lists, and every layer,
the last one too, is keyed by (shape, last strip).  `_reference_strips`
is the former `schubcalc.schur._strips`, the separate strip enumeration
that the pass's walk over compositions has replaced.  It takes the arguments of `schubcalc.schur._strip_pass` and
must give the same dictionary, zero entries included.

`partitions_of` lists the partitions of one size, for the tests to sweep.
"""

from schubcalc.grassmann import GrassmannClass
from schubcalc.indexing import normalize_partition, partition_contains, partition_size
from schubcalc.schur import SchurExpansion


def count_lr_tableaux(lam, mu, nu):
    """Count LR tableaux of shape nu/lam and content mu, one box at a time.

    The boxes are filled in the order of the reverse reading word (each
    row right to left, rows top to bottom), so every constraint is checked
    the moment a value is placed: rows stay weakly increasing, columns
    strictly increasing, the content never exceeds mu, and every prefix of
    the reading word has at least as many i's as (i+1)'s.  Backtracking
    runs on an explicit stack, so a skew shape of thousands of boxes needs
    no recursion depth.
    """
    if partition_size(lam) + partition_size(mu) != partition_size(nu):
        return 0
    if not partition_contains(nu, lam) or not partition_contains(nu, mu):
        return 0
    if not mu:
        return 1
    nrows = len(nu)
    lamp = lam + (0,) * (nrows - len(lam))
    cells = []
    for r in range(nrows):
        for c in range(nu[r] - 1, lamp[r] - 1, -1):
            cells.append((r, c))
    # neighbours filled before each box: the value to its right bounds it
    # from above, the value over it from below (-1 where there is none)
    position = {cell: i for i, cell in enumerate(cells)}
    right = [position.get((r, c + 1), -1) for r, c in cells]
    above = [position.get((r - 1, c), -1) for r, c in cells]
    nvals = len(mu)
    last = len(cells) - 1
    counts = [0] * nvals
    # the lattice condition keeps counts weakly decreasing, so the letters
    # in use are 1..used and no box can take a letter above used + 1
    used = 0
    vals = [0] * len(cells)  # value in each box; while searching, the last one tried
    tops = [0] * len(cells)
    tops[0] = nvals
    total = 0
    i = 0
    while True:
        v = vals[i] + 1
        hi = tops[i]
        if hi > used:
            hi = used + 1
        while v <= hi:
            iv = v - 1
            if counts[iv] < mu[iv] and (v == 1 or counts[iv - 1] > counts[iv]):
                break
            v += 1
        if v > hi:
            i -= 1
            if i < 0:
                return total
            iv = vals[i] - 1
            counts[iv] -= 1
            if not counts[iv]:
                used -= 1
            continue
        vals[i] = v
        if i == last:
            total += 1
            continue
        if not counts[v - 1]:
            used += 1
        counts[v - 1] += 1
        i += 1
        j = above[i]
        vals[i] = vals[j] if j >= 0 else 0
        j = right[i]
        tops[i] = vals[j] if j >= 0 else nvals


def _reference_strips(shape, prev, size, caps):
    """Horizontal strips of `size` boxes that can be added to `shape`.

    Each strip is a tuple of (row, boxes) pairs, rows increasing.  Row r
    may hold at most caps[r] boxes and never passes the old row above it;
    no strip reaches row len(caps).  When `prev` (the previous letter's
    strip) is given, the new letter keeps the lattice condition: through
    each row it occurs at most as often as the previous letter does in the
    rows above.
    """
    rows, room, limit = [], [], []
    above, k = caps[0], 0
    # seen: the previous letter's boxes in the rows above row r
    seen = size if prev is None else 0
    prev = prev or ()
    n, m = len(shape), len(prev)
    for r in range(min(n + 1, len(caps))):
        here = shape[r] if r < n else 0
        while k < m and prev[k][0] < r:
            seen += prev[k][1]
            k += 1
        cap = caps[r]
        if above > cap:
            above = cap
        if above > here and seen:
            rows.append(r)
            room.append(min(above - here, seen))
            limit.append(seen)
        above = here
    if size == 1:
        return [((r, 1),) for r in rows]
    tail = [0] * (len(rows) + 1)
    for j in range(len(rows) - 1, -1, -1):
        tail[j] = tail[j + 1] + room[j]
    if tail[0] < size:
        return []
    out = []
    stack = [(0, 0, ())]
    while stack:
        j, used, adds = stack.pop()
        if used == size:
            out.append(adds)
            continue
        left = size - used
        hi = min(room[j], left, limit[j] - used)
        lo = max(0, left - tail[j + 1])
        if lo == 0:
            stack.append((j + 1, used, adds))
            lo = 1
        r = rows[j]
        for a in range(lo, hi + 1):
            stack.append((j + 1, used + a, adds + ((r, a),)))
    return out


def strip_pass_reference(seeds, mu, caps, fill):
    """{nu: sum of c * c_{lam,mu}^nu over the seeds lam: c} for every nu
    with at most caps[r] boxes in row r; with `fill`, only nu = caps is
    wanted.

    Starting from every seed shape at once, the letters of mu are added one
    at a time, each as a horizontal strip that keeps the lattice condition,
    and partial tableaux that reach the same shape with the same last strip
    are merged with their multiplicities added, whichever seed they came
    from.  A state whose multiplicity cancels to zero is not extended.
    """
    layer = {(lam, None): c for lam, c in seeds.items()}
    for i, size in enumerate(mu):
        keep = i + 1 < len(mu)
        nxt = {}
        for (shape, prev), mult in layer.items():
            if not mult:
                continue
            n = len(shape)
            for strip in _reference_strips(shape, prev, size, caps):
                new = list(shape)
                for r, a in strip:
                    if r < n:
                        new[r] += a
                    else:
                        new.append(a)
                # letter i lands in row i or below and the lattice condition
                # keeps later letters below row i, so row i is now final
                if fill and new[i] != caps[i]:
                    continue
                key = (tuple(new), strip if keep else None)
                nxt[key] = nxt.get(key, 0) + mult
        layer = nxt
    return {nu: c for (nu, _), c in layer.items()}


def partitions_of(n, max_part=None):
    """Yield partitions of n with parts bounded by max_part."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def bounded_partitions(total, low, width, maxrows):
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


def expand_by_candidates(lam, mu, rows=None, cols=None):
    """s_lam * s_mu as (nu, coefficient) pairs, nu in decreasing lex order."""
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
    for nu in bounded_partitions(total, low, width, maxrows):
        c = count_lr_tableaux(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)


def _product_by_pairs(a, b, rows=None, cols=None):
    out = {}
    for lam, ca in a.terms.items():
        for mu, cb in b.terms.items():
            for nu, m in expand_by_candidates(lam, mu, rows, cols):
                out[nu] = out.get(nu, 0) + ca * cb * m
    return out


def gr_multiply_by_pairs(a, b):
    """Product in H*(Gr_k(C^n)) as the sum, over pairs of terms, of the
    LR expansion of each pair truncated to the k x l box."""
    space = a.space
    return GrassmannClass(space, _product_by_pairs(a, b, space.k, space.l))


def schur_multiply_by_pairs(a, b):
    """Product of two Schur expansions as the sum, over pairs of terms, of
    the LR expansion of each pair."""
    return SchurExpansion(_product_by_pairs(a, b))


def pieri(lam, p, kind="row"):
    """Multiply s_lam by a full row (h_p) or a full column (e_p).

    Row kind adds a horizontal strip of p boxes, column kind a vertical
    strip.  Independent of the strip pass, so it cross-checks products
    with one-row or one-column factors.
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
