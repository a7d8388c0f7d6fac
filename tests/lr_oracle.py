"""The per-candidate Littlewood-Richardson expansion, kept as a test oracle.

It lists every partition nu that could occur in s_lam * s_mu (inside the
box when one is given) and counts LR tableaux of shape nu/lam with
`lr_coefficient`, one search per candidate.  This was the product kernel
before the one-pass strip expansion in `schubcalc.schur` replaced it; the
two share only `lr_coefficient`'s input checks.
"""

from schubcalc.indexing import partition_size
from schubcalc.schur import lr_coefficient


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
        c = lr_coefficient(lam, mu, nu)
        if c:
            out.append((nu, c))
    return tuple(out)
