"""Reference computations the benchmark checks answers against.

Nothing here imports the program. Grassmannian products go through the
Jacobi-Trudi determinant in complete homogeneous classes h_p, and each h_p
acts by the Pieri rule (add a horizontal strip, stay inside the k x l box).
Flag products go through Monk's rule and the Lascoux-Schutzenberger
transition formula, with no polynomials at all. The closed forms (hook
lengths, the divisor volume formula) are checked on the problems they
cover.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

# ---------------------------------------------------------------------------
# small combinatorics
# ---------------------------------------------------------------------------


def perm_sign(p):
    sign, seen = 1, set()
    for start in range(len(p)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def hook_length_count(k, l):
    """Standard tableaux of the k x l rectangle: the degree of Gr(k, k + l)."""
    hooks = prod((k - i) + (l - j) - 1 for i in range(k) for j in range(l))
    return factorial(k * l) // hooks


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


# ---------------------------------------------------------------------------
# Grassmannian: Pieri rule under Jacobi-Trudi
# ---------------------------------------------------------------------------


def _hpoly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(sorted(ea + eb, reverse=True))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _hpoly_det(matrix):
    """Determinant of a square matrix of h-polynomials by permutation sum."""
    size = len(matrix)
    out = {}
    for p in permutations(range(size)):
        term = {(): perm_sign(p)}
        for i in range(size):
            term = _hpoly_mul(term, matrix[i][p[i]])
            if not term:
                break
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _h(p):
    """h_p as an h-polynomial: keys are weakly decreasing tuples of parts."""
    if p < 0:
        return {}
    return {(): 1} if p == 0 else {(p,): 1}


class GrOracle:
    """H*(Gr(k, C^(k+l))) with classes as {padded partition: coefficient}."""

    def __init__(self, k, l):
        self.k, self.l = k, l
        self._strips = {}
        self._ops = {}

    def unit(self):
        return {(0,) * self.k: 1}

    def _strip_add(self, lam, p):
        key = (lam, p)
        hit = self._strips.get(key)
        if hit is not None:
            return hit
        k, l, out = self.k, self.l, []

        def rec(i, rem, acc):
            if i == k:
                if rem == 0:
                    out.append(tuple(acc))
                return
            hi = l if i == 0 else lam[i - 1]
            for v in range(lam[i], min(hi, lam[i] + rem) + 1):
                rec(i + 1, rem - (v - lam[i]), acc + [v])

        rec(0, p, [])
        self._strips[key] = out
        return out

    def _apply_basis(self, mu, name, hpoly):
        key = (mu, name)
        hit = self._ops.get(key)
        if hit is not None:
            return hit
        out = {}
        for parts, c in hpoly.items():
            vec = {mu: c}
            for p in parts:
                nxt = {}
                for lam, a in vec.items():
                    for nu in self._strip_add(lam, p):
                        nxt[nu] = nxt.get(nu, 0) + a
                vec = nxt
            for nu, a in vec.items():
                out[nu] = out.get(nu, 0) + a
        out = {nu: a for nu, a in out.items() if a}
        self._ops[key] = out
        return out

    def apply(self, vec, name, hpoly):
        out = {}
        for mu, c in vec.items():
            for nu, a in self._apply_basis(mu, name, hpoly).items():
                out[nu] = out.get(nu, 0) + c * a
        return {nu: a for nu, a in out.items() if a}

    def schubert_hpoly(self, lam):
        """Jacobi-Trudi: sigma_lam = det(h_{lam_i - i + j})."""
        lam = tuple(p for p in lam if p)
        r = len(lam)
        return _hpoly_det([[_h(lam[i] - i + j) for j in range(r)] for i in range(r)])

    def times_schubert(self, vec, lam):
        lam = tuple(p for p in lam if p)
        return self.apply(vec, ("s", lam), self.schubert_hpoly(lam))

    def locus_hpoly(self, corank):
        """Thom-Porteous class of rank <= k - corank for S -> Q.

        c(Q - S) = c(Q)^2 because c(S) c(Q) = 1, and c(Q) = sum of h_i.
        """
        k, l = self.k, self.l
        rho = k - corank
        size = k - rho

        def c(d):
            out = {}
            for i in range(0, d + 1):
                for e, v in _hpoly_mul(_h(i), _h(d - i)).items():
                    out[e] = out.get(e, 0) + v
            return out

        return _hpoly_det(
            [[c(l - rho + j - i) for j in range(size)] for i in range(size)]
        )

    def times_locus(self, vec, corank):
        return self.apply(vec, ("locus", corank), self.locus_hpoly(corank))

    def integrate(self, vec):
        return vec.get((self.l,) * self.k, 0)


# ---------------------------------------------------------------------------
# flags: Monk's rule and the transition formula
# ---------------------------------------------------------------------------


def _covers(w, i, j):
    """w t_ij has length one more than w (0-based positions, i < j)."""
    lo, hi = w[i], w[j]
    return lo < hi and not any(lo < w[t] < hi for t in range(i + 1, j))


def _swap(w, i, j):
    lst = list(w)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


def _add(out, w, c):
    v = out.get(w, 0) + c
    if v:
        out[w] = v
    else:
        out.pop(w, None)


def monk(cls, r):
    """Multiply by the divisor D_r = sigma_{s_r} (r 1-based) in H*(Fl_n)."""
    out = {}
    for w, c in cls.items():
        n = len(w)
        for i in range(r):
            for j in range(r, n):
                if _covers(w, i, j):
                    _add(out, _swap(w, i, j), c)
    return out


def times_x(cls, r):
    """Multiply by x_r = D_r - D_{r-1} (r 1-based) in H*(Fl_n)."""
    out = {}
    p = r - 1
    for w, c in cls.items():
        for j in range(p + 1, len(w)):
            if _covers(w, p, j):
                _add(out, _swap(w, p, j), c)
        for i in range(p):
            if _covers(w, i, p):
                _add(out, _swap(w, i, p), -c)
    return out


class FlagProduct:
    """Products cls * sigma_v by the transition formula, memoized on v.

    With r the last descent of v, s the last position after r with
    v(s) < v(r) and v' = v t_rs:
        sigma_v = x_r sigma_v' + sum over i < r with l(v' t_ir) = l(v)
                  of sigma_{v' t_ir}
    (Lascoux-Schutzenberger; Macdonald, Notes on Schubert Polynomials 4.16).
    """

    def __init__(self, cls):
        self.cls = cls
        self._memo = {}

    def times(self, v):
        v = tuple(v)
        hit = self._memo.get(v)
        if hit is not None:
            return hit
        descents = [i for i in range(len(v) - 1) if v[i] > v[i + 1]]
        if not descents:
            return self.cls
        r = descents[-1]
        s = max(j for j in range(r + 1, len(v)) if v[j] < v[r])
        v1 = _swap(v, r, s)
        out = dict(times_x(self.times(v1), r + 1))
        for i in range(r):
            if _covers(v1, i, r):
                for w, c in self.times(_swap(v1, i, r)).items():
                    _add(out, w, c)
        self._memo[v] = out
        return out


def flag_product(n, factors):
    """Expansion of the product of sigma_w (w in S_n, one-line) in H*(Fl_n)."""
    cls = {tuple(range(1, n + 1)): 1}
    for w in factors:
        cls = FlagProduct(cls).times(w)
    return cls


def top_representative(dims):
    out, start = [], sum(dims)
    for d in dims:
        out.extend(range(start - d + 1, start + 1))
        start -= d
    return tuple(out)


def divisor_volume_count(n, m):
    """Integral of prod_r D_r^{m_r} over Fl(1^n) by the volume formula.

    int prod D_r^{m_r} = prod m_r! [t^m] prod_{i<j} (t_i + ... + t_{j-1})
                         / prod_{i<j} (j - i)
    """
    nv = n - 1
    poly = {(0,) * nv: 1}
    for i in range(nv):
        for j in range(i + 1, n):
            nxt = {}
            for e, c in poly.items():
                for v in range(i, j):
                    if e[v] < m[v]:
                        e2 = e[:v] + (e[v] + 1,) + e[v + 1:]
                        nxt[e2] = nxt.get(e2, 0) + c
            poly = nxt
    coeff = poly.get(tuple(m), 0)
    denom = prod(j - i for i in range(n) for j in range(i + 1, n))
    value = Fraction(coeff * prod(factorial(x) for x in m), denom)
    if value.denominator != 1:
        raise ArithmeticError("volume formula gave a non-integer")
    return int(value)
