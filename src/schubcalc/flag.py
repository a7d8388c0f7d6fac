"""Schubert calculus on partial flag manifolds.

Basis classes are indexed by minimal-length coset representatives for the
block-permutation subgroup of the flag's dimension vector; they sit inside
H*(Fl_n) as the Schubert classes S_w of those permutations. A product is
computed without leaving S_n. Each term S_v of one factor is unfolded by the
transition formula of Lascoux and Schuetzenberger (Lett. Math. Phys. 10,
1985), S_w = x_r S_{w t_rs} + a sum of classes of the same length as w, and
every x_r is applied to the other factor's whole class by Monk's rule
(Monk 1959): one Monk step per node of the transition tree, and no
polynomial is built. Labels outside S_n span the ideal of the coinvariant
ring (Macdonald, Notes on Schubert Polynomials, 1991), so the terms that
leave S_n are dropped as they appear. The Poincare dual of S_u is
S_{w0 u w0^P} (w0^P the longest element of the block subgroup), which a
count pairs through (combination.intersection_number).

Its oracles, Schubert polynomials with the expansion back into the
Schubert basis and Monk's rule one transposition at a time, live in
`selftest`.

Classes are keyed by permutations only, stored without trailing fixed
points: Schubert classes are stable under S_n in S_(n+1), so a key reads
the same in every S_n it fits, and it is padded to n only where `serialize`
writes it. Ordered set partitions, the other name of a coset, are read and
written in `serialize` alone.
"""

from itertools import groupby

from .combination import COMPLEX, Record, SparseCombination, decimal_text
from .indexing import (
    is_minimal_rep,
    normalize_perm,
    perm_length,
    perm_pad,
    perm_strip,
)


class FlagDescriptor(Record):
    """Fl_D(C^n): flags with subquotient dimensions D = (d_1, ..., d_r)."""

    __slots__ = _fields = ("dims",)
    kind = COMPLEX
    fixed_point = index_space = property(lambda self: self)
    classes = property(lambda self: FlagClass)

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"flag dimensions must be positive, got {dims}")
        super().__init__(dims)

    @property
    def n(self):
        return sum(self.dims)

    @property
    def complex_dimension(self):
        # the sum of d_i d_j over i < j, in one pass over the blocks
        n = self.n
        return (n * n - sum(d * d for d in self.dims)) // 2

    @property
    def boundaries(self):
        """Positions where a block ends; these index the degree-1 classes."""
        acc, out = 0, []
        for d in self.dims[:-1]:
            acc += d
            out.append(acc)
        return tuple(out)

    def __str__(self):
        return f"Fl{_dims_text(self.dims)}(C^{decimal_text(self.n)})"


def _dims_text(dims):
    """dims with each run of m > 1 equal blocks d written d^m, so that it
    does not grow with n: (1, 1, 1, 2) -> "(1^3, 2)"."""
    runs = ((decimal_text(d), sum(1 for _ in run)) for d, run in groupby(dims))
    return "(" + ", ".join(f"{d}^{m}" if m > 1 else d for d, m in runs) + ")"


class FlagClass(SparseCombination):
    """Sparse integer combination of Schubert classes on a partial flag manifold.

    Keys are minimal coset representative permutations, stored without
    trailing fixed points (the unit is `()`), the stable form the kernel
    reads; `basis(space, w)` takes one of any length up to n.
    """

    __slots__ = ()
    _rank = staticmethod(perm_length)
    _symbol = "S"

    @staticmethod
    def _key(space, w):
        w = normalize_perm(w)
        if len(w) > space.n:
            raise ValueError(f"cannot pad {w!r} down to length {space.n}")
        if not is_minimal_rep(w, space.dims):
            raise ValueError(
                f"{w} is not a minimal coset representative for {space.dims}"
            )
        return perm_strip(w)

    @staticmethod
    def _dual_key(space, w):
        # w0 w w0^P, w0^P the longest element of the block subgroup: the
        # values n + 1 - w(i) of w padded to n, reversed inside each block
        top, out, end = space.n + 1, [], 0
        w = perm_pad(w, space.n)
        for d in space.dims:
            out.extend(top - v for v in reversed(w[end:end + d]))
            end += d
        while out and out[-1] == len(out):
            out.pop()
        return tuple(out)

    def _product(self, other):
        return flag_multiply(self, other)


def _times_variable(i, terms, n):
    """x_i times a combination of S_w (w in S_n), by Monk's rule in H*(Fl_n).

    x_i S_w is the sum of S_{w t_ij} over j > i minus the sum of S_{w t_ji}
    over j < i, each over the transpositions that raise the length by
    exactly one: w(j) lies on the far side of w(i) and no position between
    them holds a value in between. Scanning away from i, the value swapped in
    last bounds the next one. Transpositions with j > n leave S_n and vanish.

    Keys come and go without trailing fixed points. A key shorter than i
    is read padded to i; past its m letters position j holds j, so only
    m + 1 can be swapped in there, when no letter after i exceeds w(i).
    """
    out = {}
    get = out.get
    p = i - 1
    for w, c in terms.items():
        m = len(w)
        if m < i:
            w += tuple(range(m + 1, i + 1))
            m = i
        wi = w[p]
        hi = n + 1
        for j in range(i, m if m < n else n):
            v = w[j]
            if wi < v < hi:
                hi = v
                key = w[:p] + (v,) + w[i:j] + (wi,) + w[j + 1:]
                out[key] = get(key, 0) + c
                if v == wi + 1:
                    break
        else:
            if hi > m + 1:
                key = w[:p] + (m + 1,) + w[i:] + (wi,)
                out[key] = get(key, 0) + c
        lo = 0
        for j in range(p - 1, -1, -1):
            v = w[j]
            if lo < v < wi:
                lo = v
                key = w[:j] + (wi,) + w[j + 1:p] + (v,) + w[i:]
                out[key] = get(key, 0) - c
                if v == wi - 1:
                    break
    return {w: c for w, c in out.items() if c}


def _transition(w):
    """The transition step of Lascoux and Schuetzenberger (1985) at w != id.

    With r the last descent of w, s the last position after r holding a
    value below w(r), and v = w t_rs (one shorter than w),
    S_w = x_r S_v + the sum of S_{v t_ir} over the i < r where v t_ir is as
    long as w: the terms Monk's rule for x_r S_v subtracts, all that
    `_times_variable` returns with n = r (each term it adds leaves S_r).
    Returns r, v and those v t_ir; v is stripped of trailing fixed points,
    so the moves come out stripped too.
    """
    p = len(w) - 2
    while w[p] < w[p + 1]:
        p -= 1
    wr = w[p]
    q = p + 1
    while q + 1 < len(w) and w[q + 1] < wr:
        q += 1
    v = perm_strip(w[:p] + (w[q],) + w[p + 1:q] + (wr,) + w[q + 1:])
    return p + 1, v, list(_times_variable(p + 1, {v: 1}, p + 1))


def _schubert_times(w, memo, n):
    """S_w times the class memo[()], memoised by permutation (stripped, as
    every key is).

    Walks the transition tree below w with an explicit stack, so its depth
    costs no Python recursion. It ends because each step either shortens
    the permutation or keeps its length and makes it lexicographically
    larger. Each node costs one Monk step and a sum of its children.
    """
    stack = [(w, None)]
    while stack:
        u, step = stack.pop()
        if u in memo:
            continue
        if step is None:
            step = _transition(u)
        r, v, moves = step
        missing = [x for x in (v, *moves) if x not in memo]
        if missing:
            stack.append((u, step))
            stack.extend((x, None) for x in missing)
            continue
        terms = _times_variable(r, memo[v], n)
        if moves:
            for x in moves:
                for key, c in memo[x].items():
                    terms[key] = terms.get(key, 0) + c
            terms = {key: c for key, c in terms.items() if c}
        memo[u] = terms
    return memo[w]


def flag_multiply(a, b):
    """Product in H*(Fl_D(C^n)), computed inside S_n by the transition formula.

    Each term S_v of the factor with fewer terms (then lower degree) times
    the other factor's whole class comes from the transition tree below v:
    one Monk step per node, with every node's product memoised for the
    call. No Schubert polynomial is built. Labels that leave S_n vanish in
    the quotient and are dropped. Multiplying by the unit returns the other
    factor. Every output label must already be a minimal representative
    (the subring they span is closed under products), which is asserted
    rather than assumed.
    """
    a._check_space(b)
    if a._cheaper_than(b):
        a, b = b, a
    space = a.space
    n = space.n
    if b.terms == {(): 1}:
        return a
    memo = {(): a.terms}
    out = {}
    for v, c in b.terms.items():
        for w, d in _schubert_times(v, memo, n).items():
            out[w] = out.get(w, 0) + c * d
    product = FlagClass._make(space, out)
    for w in product.terms:
        assert is_minimal_rep(w, space.dims), (a, b, w)
    return product


def flag_integrate(a):
    """Coefficient of the point class, the dual of the unit: the longest
    minimal representative."""
    return a.terms.get(FlagClass._dual_key(a.space, ()), 0)
