"""Built-in verification suites, and the oracles they share with the tests.

Every check recomputes a known quantity through the public entry points
and compares it with an independently stored expectation. The checks look
the engine's functions up on their modules at call time, so a patched or
miscompiled function shows up as a failing check rather than a silently
wrong answer.

The quick level runs in well under five seconds; the full level adds the
larger flag and determinant suites.

No product of the engine builds a polynomial, so the references that check
the products live here, loaded only for `schubcalc selftest`, the tests
and the Python API names that `schubcalc` serves from this module:

- `SparsePolynomial`, the polynomial ring with exact coefficients;
- `schubert_polynomial`, by divided differences of the staircase
  monomial, and its inverse `expand_in_schubert_basis`; flag products are
  checked against expanded polynomial products;
- `monk_multiply`, Monk's rule for a degree-one class, enumerated
  transposition by transposition;
- `oracle_schur_polynomial`, the Schur polynomial from semistandard
  tableaux built as chains of horizontal strips, and `jacobi_trudi`, the
  row determinant of complete homogeneous pieces;
- the permutation and partition helpers that only these oracles use.

None of them shares code with the kernel it checks: `monk_multiply` with
neither the Monk step nor the transition walk of `flag_multiply`, the
tableau polynomial with none of the strip pass of `schur`.
"""

import sys
from fractions import Fraction
from itertools import permutations
from operator import add

from . import flag as flag_mod
from . import grassmann as gr_mod
from . import halving as halving_mod
from . import indexing as indexing_mod
from . import schur as schur_mod
from .combination import SparseCombination, decimal_text
from .errors import SupportOutsideStaircase
from .flag import FlagClass
from .indexing import normalize_partition, normalize_perm, perm_pad, perm_strip
from .schur import SchurExpansion, ring_determinant

# ---------------------------------------------------------------------------
# partitions and permutations
# ---------------------------------------------------------------------------


def partitions_in_box(rows, cols):
    """Yield every partition inside a rows x cols box, by size then lex."""
    found = [[] for _ in range(rows * cols + 1)]

    def rec(prefix, row, cap):
        found[sum(prefix)].append(tuple(prefix))
        if row == rows:
            return
        for p in range(1, cap + 1):
            rec(prefix + [p], row + 1, p)

    rec([], 0, cols)
    for bucket in found:
        bucket.sort()
        for lam in bucket:
            yield lam


def longest_perm(n):
    return tuple(range(n, 0, -1))


def perm_inverse(w):
    inv = [0] * len(w)
    for i, x in enumerate(w):
        inv[x - 1] = i + 1
    return tuple(inv)


def perm_compose(u, v):
    """Composite u after v: (u v)(i) = u(v(i)).  Lengths must agree."""
    if len(u) != len(v):
        raise ValueError("length mismatch composing %r and %r" % (u, v))
    return tuple(u[v[i] - 1] for i in range(len(v)))


def perm_descents(w):
    """Positions i with w(i) > w(i+1)."""
    return tuple(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def perm_swap_positions(w, i, j):
    lst = list(w)
    lst[i - 1], lst[j - 1] = lst[j - 1], lst[i - 1]
    return tuple(lst)


def perm_from_code(code):
    """Rebuild the permutation with the given code (trailing zeros allowed)."""
    code = tuple(int(c) for c in code)
    n = len(code)
    while n > 0 and code[n - 1] == 0:
        n -= 1
    code = code[:n]
    m = max((code[i] + i + 1 for i in range(n)), default=0)
    available = list(range(1, m + 1))
    out = []
    for i in range(n):
        out.append(available.pop(code[i]))
    out.extend(available)
    return tuple(out)


def reduced_word(w, strategy="leftmost"):
    """A reduced word (i_1, ..., i_t) with w = s_{i_1} ... s_{i_t}.

    Letters are found from the right: a descent i of w lets us peel off
    a final s_i.  The strategy picks which descent, so different
    strategies give genuinely different words.
    """
    w = tuple(w)
    word = []
    while True:
        desc = perm_descents(w)
        if not desc:
            break
        i = desc[0] if strategy == "leftmost" else desc[-1]
        word.append(i)
        w = perm_swap_positions(w, i, i + 1)
    word.reverse()
    return tuple(word)


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------


def _strip(exps):
    n = len(exps)
    while n > 0 and exps[n - 1] == 0:
        n -= 1
    return tuple(exps[:n])


def _add_exps(a, b):
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(add, a, b)) + a[len(b):]


class SparsePolynomial(SparseCombination):
    """Immutable polynomial: a combination of monomials keyed by exponents.

    Exponent tuples are stored with trailing zeros stripped, so a
    polynomial does not remember how many variables it was built with:
    x1*x2 is the same object coming from two variables or from ten.
    Variables are 1-indexed to match the usual x1, x2, ... notation.  The
    linear arithmetic is the shared `SparseCombination`'s, with no space.
    """

    __slots__ = ()
    _scalars = (int, Fraction)
    _rank = staticmethod(sum)

    def __init__(self, terms=None):
        """Build from a mapping exponent-tuple -> coefficient; zeros dropped."""
        super().__init__(None, terms or {})

    @staticmethod
    def _key(space, exps):
        return _strip(tuple(exps))

    def _product(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = _add_exps(ea, eb)
                out[key] = get(key, 0) + ca * cb
        return self._make(None, out)

    def __add__(self, other):
        if isinstance(other, int):
            other = self.constant(other)
        return super().__add__(other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    @classmethod
    def one(cls):
        return cls.unit()

    @classmethod
    def constant(cls, c):
        return cls._make(None, {(): c})

    @classmethod
    def variable(cls, i):
        if i < 1:
            raise ValueError("variables are 1-indexed")
        return cls._make(None, {(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                "x%d" % (i + 1) if p == 1 else "x%d^%d" % (i + 1, p)
                for i, p in enumerate(e)
                if p
            )
            if not mono:
                bits.append(decimal_text(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (decimal_text(c), mono))
        return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Schubert polynomials and Monk's rule
# ---------------------------------------------------------------------------


def divided_difference(i, p):
    """Apply (p - swap_i(p)) / (x_i - x_{i+1}), term by term.

    For a single monomial the quotient telescopes: with a = exponent of x_i,
    b = exponent of x_{i+1}, m = min(a, b) and q = |a - b|, the result is
    sign(a - b) times the sum of monomials x_i^(m+t) x_{i+1}^(m+q-1-t) for
    0 <= t < q, carrying the other variables along unchanged. Symmetric
    monomials (a = b) die.
    """
    if i < 1:
        raise ValueError("variable index must be at least 1")
    out = {}
    for exp, c in p.terms.items():
        a = exp[i - 1] if len(exp) >= i else 0
        b = exp[i] if len(exp) > i else 0
        if a == b:
            continue
        sign = 1 if a > b else -1
        m, q = min(a, b), abs(a - b)
        base = list(exp) + [0] * (i + 1 - len(exp))
        for t in range(q):
            base[i - 1] = m + t
            base[i] = m + q - 1 - t
            key = tuple(base)
            while key and key[-1] == 0:
                key = key[:-1]
            out[key] = out.get(key, 0) + sign * c
    return SparsePolynomial._make(None, out)


def staircase_monomial(n):
    """x_1^(n-1) x_2^(n-2) ... x_{n-1}, the top Schubert polynomial for S_n."""
    return SparsePolynomial.monomial(tuple(range(n - 1, 0, -1)), 1)


# Filled lazily, one table per process; oracle_cache_clear empties it.
_schubert_table = {}


def schubert_polynomial(w):
    """Schubert polynomial of w, stable under embedding into larger groups.

    Starts from the staircase monomial for the longest element and walks
    down along a reduced word of w^{-1} w_0, applying one divided difference
    per letter, rightmost letter first.
    """
    w = perm_strip(normalize_perm(w))
    cached = _schubert_table.get(w)
    if cached is not None:
        return cached
    n = len(w)
    if n == 0:
        result = SparsePolynomial.one()
    else:
        u = perm_compose(perm_inverse(w), longest_perm(n))
        result = staircase_monomial(n)
        for i in reversed(reduced_word(u)):
            result = divided_difference(i, result)
    _schubert_table[w] = result
    return result


def _staircase_check(p, n):
    for exp in p.terms:
        if len(exp) > n - 1 or any(e > n - 1 - idx for idx, e in enumerate(exp)):
            raise SupportOutsideStaircase(
                f"monomial {exp} is outside the staircase for S_{n}"
            )


def expand_in_schubert_basis(p, n):
    """Write p as an integer combination of Schubert polynomials for S_n.

    Triangular elimination on the lexicographically smallest monomial
    (x_1 major): that monomial is x^code(w) for a unique w, and the Schubert
    polynomial of w contains it with coefficient 1 and nothing smaller.
    Subtracting peels one basis element per round; every round re-checks
    that property, so a convention slip raises instead of a wrong answer.
    """
    _staircase_check(p, n)
    out = {}
    work = p
    while not work.is_zero():
        exp = min(work.terms)
        c = work.terms[exp]
        w = perm_from_code(exp)
        basis = schubert_polynomial(w)
        if min(basis.terms) != exp or basis.terms[exp] != 1:
            raise AssertionError(
                f"leading-monomial property failed for {w}; "
                "term-order convention violated"
            )
        work = work - c * basis
        out[perm_pad(w, n)] = c
    return out


def monk_multiply(r, a):
    """Multiply a by the degree-1 class of the block boundary r.

    Shares no code with the product kernel (neither _times_variable nor
    the transition walk), so it serves as that kernel's oracle: enumerate
    transpositions swapping a position <= r with one > r that raise
    length by exactly 1, i.e. w(i) < w(j) with no intermediate value
    between them.
    """
    space = a.space
    if r not in space.boundaries:
        raise ValueError(
            f"{r} is not a block boundary of {space}; "
            f"degree-1 classes sit at {space.boundaries}"
        )
    n = space.n
    out = {}
    for w, c in a.terms.items():
        w = perm_pad(w, n)
        for i in range(1, r + 1):
            for j in range(r + 1, n + 1):
                lo, hi = w[i - 1], w[j - 1]
                if lo >= hi:
                    continue
                if any(lo < w[t - 1] < hi for t in range(i + 1, j)):
                    continue
                nw = perm_swap_positions(w, i, j)
                out[nw] = out.get(nw, 0) + c
    return FlagClass(space, out)


# ---------------------------------------------------------------------------
# Schur polynomials and the row determinant
# ---------------------------------------------------------------------------


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
    """Release the oracles' caches: tableau weights and Schubert
    polynomials (they can get large in high degree)."""
    _oracle_cache.clear()
    _schubert_table.clear()


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def _fail(message):
    raise AssertionError(message)


def _expect(got, want, label):
    if got != want:
        _fail(f"{label}: got {got!r}, expected {want!r}")


def _check_lr_values():
    table = {
        ((1,), (1,), (2,)): 1,
        ((1,), (1,), (1, 1)): 1,
        ((1,), (1,), (3,)): 0,
        ((2, 1), (2, 1), (3, 2, 1)): 2,
        ((2, 1), (2, 1), (4, 2)): 1,
        ((2, 2), (2, 1), (4, 3)): 1,
        ((3, 1), (2,), (3, 2, 1)): 1,
        ((2, 2), (1, 1), (4, 2)): 0,
    }
    for (lam, mu, nu), want in table.items():
        got = schur_mod.lr_coefficient(lam, mu, nu)
        _expect(got, want, f"coefficient of {nu} in {lam}*{mu}")


def _check_products_against_tableaux():
    nvars = 3
    shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (2, 2)]
    for lam in shapes:
        for mu in shapes:
            product = schur_mod.schur_multiply(
                schur_mod.SchurExpansion.basis(lam), schur_mod.SchurExpansion.basis(mu)
            )
            direct = oracle_schur_polynomial(
                lam, nvars
            ) * oracle_schur_polynomial(mu, nvars)
            recombined = sum(
                (
                    c * oracle_schur_polynomial(nu, nvars)
                    for nu, c in product.terms.items()
                    if len(nu) <= nvars
                ),
                oracle_schur_polynomial((), nvars) * 0,
            )
            if recombined != direct:
                _fail(f"product {lam}*{mu} disagrees with the tableau generating function")


def _check_duality_small():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    shapes = list(partitions_in_box(space.k, space.l))
    for lam in shapes:
        for mu in shapes:
            pairing = gr_mod.gr_integrate(
                gr_mod.gr_multiply(
                    gr_mod.GrassmannClass.basis(space, lam),
                    gr_mod.GrassmannClass.basis(space, mu),
                )
            )
            want = 1 if mu == gr_mod.poincare_dual(lam, space) else 0
            _expect(pairing, want, f"duality pairing of {lam} and {mu}")


def _check_classic_counts():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    sigma1 = gr_mod.GrassmannClass.basis(space, (1,))
    _expect(gr_mod.gr_integrate(sigma1 ** 4), 2, "lines meeting four lines")
    space6 = gr_mod.GrassmannianDescriptor(2, 6)
    _expect(
        gr_mod.gr_integrate(gr_mod.GrassmannClass.basis(space6, (2,)) ** 4),
        3,
        "lines meeting four planes in five-space",
    )


def _check_rank_drop():
    space = gr_mod.GrassmannianDescriptor(2, 4)
    series = gr_mod.tautological_chern_difference(space, 2)
    locus = gr_mod.thom_porteous(2, 2, 1, series)
    _expect(
        dict(locus.terms),
        {(1,): 2},
        "rank-drop locus of the tautological map",
    )
    _expect(gr_mod.degeneracy_count(space, 2, 2, 1, 4), 32, "four rank-drop conditions")


def _check_halving_bounds():
    real = halving_mod.HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
    problem = halving_mod.SchubertProblem(real, (((2, 2), 4),))
    _expect(halving_mod.real_lower_bound(problem), 2, "real lines meeting four lines")

    quat = halving_mod.HalvingSpaceDescriptor.quaternionic_grassmannian(2, 4)
    qproblem = halving_mod.SchubertProblem(quat, (((1,), 4),))
    _expect(halving_mod.quaternionic_count(qproblem), 2, "quaternionic lines meeting four lines")

    image = halving_mod.kappa(halving_mod.HalvingClass.basis(real, (2, 2)))
    _expect(
        dict(image.terms),
        {(1,): 2},
        "halving image of a doubled single-box condition",
    )


def _check_monk_three():
    space = flag_mod.FlagDescriptor((1, 1, 1))
    for w in ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)):
        base = flag_mod.FlagClass.basis(space, w)
        for r in (1, 2):
            got = monk_multiply(r, base)
            want = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(
                    space, perm_swap_positions((1, 2, 3), r, r + 1)
                ),
                base,
            )
            if got != want:
                _fail(f"degree-one product at {w}, position {r}")


def _check_flag_four():
    space = flag_mod.FlagDescriptor((1, 1, 1, 1))
    perms = [tuple(p) for p in permutations((1, 2, 3, 4))]
    for w in perms:
        base = flag_mod.FlagClass.basis(space, w)
        for r in (1, 2, 3):
            got = monk_multiply(r, base)
            want = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(
                    space, perm_swap_positions((1, 2, 3, 4), r, r + 1)
                ),
                base,
            )
            if got != want:
                _fail(f"degree-one product at {w}, position {r}")
    top = flag_mod.FlagClass.basis(space, (4, 3, 2, 1))
    unit = flag_mod.FlagClass.unit(space)
    _expect(flag_mod.flag_integrate(top * unit), 1, "point class pairing")


def _check_flag_polynomials():
    """Every product in S_4 against the expanded product of Schubert polynomials.

    The product kernel walks transition trees by Monk steps and builds no
    polynomial, so this check shares no product code with it. Two factors
    from S_n have monomials inside the staircase of S_(2n-1), where the
    product is expanded.
    """
    n = 4
    space = flag_mod.FlagDescriptor((1,) * n)
    perms = [tuple(p) for p in permutations(range(1, n + 1))]
    for u in perms:
        pu = schubert_polynomial(u)
        for v in perms:
            product = pu * schubert_polynomial(v)
            want = {}
            for w, c in expand_in_schubert_basis(product, 2 * n - 1).items():
                w = indexing_mod.perm_strip(w)
                if len(w) <= n:
                    want[w] = c
            got = flag_mod.flag_multiply(
                flag_mod.FlagClass.basis(space, u),
                flag_mod.FlagClass.basis(space, v),
            )
            _expect(dict(got.terms), want, f"product of {u} and {v}")


def _check_giambelli_box():
    space = gr_mod.GrassmannianDescriptor(3, 6)
    count = 0
    for lam in partitions_in_box(3, 3):
        got = gr_mod.giambelli(lam, space)
        want = gr_mod.GrassmannClass.basis(space, lam)
        if got != want:
            _fail(f"determinantal expansion of {lam}")
        count += 1
    _expect(count, 20, "number of shapes in the three-by-three box")


def _check_large_count():
    space = gr_mod.GrassmannianDescriptor(4, 8)
    cls = gr_mod.GrassmannClass.basis(space, (2, 2))
    _expect(gr_mod.gr_integrate(cls ** 4), 6, "four box conditions on Gr(4, C^8)")
    real = halving_mod.HalvingSpaceDescriptor.real_even_grassmannian(8, 16)
    problem = halving_mod.SchubertProblem(real, (((4, 4, 4, 4), 4),))
    _expect(halving_mod.real_lower_bound(problem), 6, "the doubled version of the same problem")


def _check_jacobi_trudi():
    for lam in ((2, 1), (2, 2), (3, 1), (3, 2, 1)):
        got = jacobi_trudi(lam)
        want = schur_mod.SchurExpansion.basis(lam)
        if got != want:
            _fail(f"row-determinant expansion of {lam}")


QUICK_CHECKS = (
    ("structure constants", _check_lr_values),
    ("products against tableaux", _check_products_against_tableaux),
    ("duality pairing on Gr(2, C^4)", _check_duality_small),
    ("classic counts", _check_classic_counts),
    ("rank-drop locus", _check_rank_drop),
    ("halving bounds", _check_halving_bounds),
    ("degree-one products on three-step flags", _check_monk_three),
    ("flag products against Schubert polynomials in S_4", _check_flag_polynomials),
)

FULL_CHECKS = QUICK_CHECKS + (
    ("degree-one products on four-step flags", _check_flag_four),
    ("determinantal expansions in the three-by-three box", _check_giambelli_box),
    ("row determinants", _check_jacobi_trudi),
    ("large incidence counts", _check_large_count),
)


def run_selftest(level="quick", out=None):
    """Run the named suite; returns 0 when every check passes."""
    if out is None:
        out = sys.stdout
    checks = FULL_CHECKS if level == "full" else QUICK_CHECKS
    failures = 0
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}", file=out)
        else:
            print(f"ok   {name}", file=out)
    print(f"{level}: {len(checks) - failures} of {len(checks)} checks passed", file=out)
    return 0 if failures == 0 else 1
