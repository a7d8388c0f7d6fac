"""Seeded problem generators for the three workloads.

Each generator returns a Workload: the problem objects in the fixed order
both the command-line runs and the in-process session use, the contiguous
slices that become one `schubcalc solve` batch file each, groups of
problems that must agree by a property of the method, and an optional
probe (an operation run as its own process and left out of every timing).
The program sees only the problem JSON.
"""

import json
import random
from dataclasses import dataclass, field

PROBE_RECURSION = {
    "description": "two single-row conditions of 1000 boxes on Gr(1, C^2001)",
    "space": {"type": "complex_grassmannian", "k": 1, "n": 2001},
    "conditions": [{"index": [1000], "count": 2}],
    "mode": "count",
}


FAMILIES = ("complex", "real", "quaternionic")


@dataclass
class Workload:
    name: str
    problems: list
    batches: list
    groups: list = field(default_factory=list)
    probe: object = None
    sessions: int = 1  # in-process sessions per cycle (run.py)


def _slices(total, parts):
    """Cut range(total) into `parts` contiguous slices of near-equal size."""
    bounds = [round(i * total / parts) for i in range(parts + 1)]
    return [list(range(bounds[i], bounds[i + 1])) for i in range(parts)]


def _conditions(indices):
    """Group equal indices into {"index", "count"} entries, first-seen order."""
    counts = {}
    for idx in indices:
        key = json.dumps(idx)
        counts[key] = counts.get(key, 0) + 1
    return [{"index": json.loads(key), "count": c} for key, c in counts.items()]


def _double(lam):
    return [2 * p for p in lam for _ in (0, 1)]


def _conjugate(lam):
    return [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []


def _box_partitions(k, l):
    out = []

    def rec(prefix, cap):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == k:
            return
        for p in range(1, cap + 1):
            rec(prefix + [p], p)

    rec([], l)
    return out


def _gr_problem(kind, k, n, lams, mode):
    """Pose the complex problem (k, n, lams) on one of the three families."""
    if kind == "complex":
        space = {"type": "complex_grassmannian", "k": k, "n": n}
        idx = lams
    elif kind == "real":
        space = {"type": "real_even_grassmannian", "k": 2 * k, "n": 2 * n}
        idx = [_double(lam) for lam in lams]
        mode = "lower_bound"
    else:
        space = {"type": "quaternionic_grassmannian", "k": k, "n": n}
        idx = lams
    return {"space": space, "conditions": _conditions(idx), "mode": mode}


def _corank_problem(k, n, corank, maps):
    return {
        "space": {"type": "real_even_grassmannian", "k": 2 * k, "n": 2 * n},
        "conditions": [{"corank": corank, "count": maps}],
        "mode": "lower_bound",
    }


def _fill(rng, parts, total):
    """Random multiset of partitions from `parts` whose sizes sum to total."""
    out, left = [], total
    while left:
        choices = [p for p in parts if sum(p) <= left]
        lam = rng.choice(choices)
        out.append(list(lam))
        left -= sum(lam)
    return out


# ---------------------------------------------------------------------------
# gr-census
# ---------------------------------------------------------------------------

CENSUS_SPACES = [
    (2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (2, 7), (3, 7), (4, 7),
    (2, 8), (3, 8), (5, 8), (4, 8), (3, 9), (4, 9), (5, 9), (5, 10),
]


def _census_coranks():
    """(k, n, halved corank c, number of maps) of every real even rank-drop
    problem on the spaces of CENSUS_SPACES that fills the dimension. The
    locus where S -> Q drops rank by c has codimension c (n - 2k + c) on the
    fixed-point Gr(k, n)."""
    out = []
    for k, n in CENSUS_SPACES:
        dim = k * (n - k)
        for c in range(1, min(k, n - k) + 1):
            codim = c * (n - 2 * k + c)
            if codim > 0 and dim % codim == 0:
                out.append((k, n, c, dim // codim))
    return out


CENSUS_PROBLEMS = 2400  # Schubert problems, shared out over CENSUS_SPACES
CENSUS_BATCHES = 6


class _Census:
    """The distinct dimension-filling problems on Gr(k, n), in a fixed order.

    A problem is a multiset of partitions in the box whose sizes sum to the
    dimension. ways[i][t] is the number of multisets of parts[i:] of total
    size t, so len(self) = ways[0][dim], and problem(r) unranks the r-th.
    """

    def __init__(self, k, n):
        self.parts = sorted(_box_partitions(k, n - k), key=lambda p: (-sum(p), p))
        self.dim = k * (n - k)
        self.ways = [[1] + [0] * self.dim]
        for lam in reversed(self.parts):
            size, after = sum(lam), self.ways[0]
            row = list(after)
            for t in range(size, self.dim + 1):
                row[t] += row[t - size]
            self.ways.insert(0, row)

    def __len__(self):
        return self.ways[0][self.dim]

    def problem(self, r):
        """The r-th problem: its partitions, largest first."""
        out, left = [], self.dim
        for i, lam in enumerate(self.parts):
            size, j = sum(lam), 0
            while r >= self.ways[i + 1][left - j * size]:
                r -= self.ways[i + 1][left - j * size]
                j += 1
            out += [list(lam)] * j
            left -= j * size
        return out


def gr_census(seed):
    """Each distinct Schubert problem on small Grassmannians at most once.

    As in a census of Schubert problems, every problem fills the dimension
    of a Grassmannian between Gr(2,4) and Gr(5,10), with conditions from all
    partitions in the box, and no problem is posed twice. The CENSUS_PROBLEMS
    problems are shared out over the spaces by water-filling: a space with
    fewer distinct problems than its share gives all of them (Gr(2,4) to
    Gr(3,6)), and the rest go in equal shares to the larger spaces, each of
    which gives a uniform sample, without replacement, of its distinct
    problems. The seed picks those samples, the family (complex, real even,
    quaternionic) each problem is posed on, and the order of all problems.
    The real even rank-drop problems of _census_coranks() are added, each once.

    Shared LR sub-products come from the problems themselves. Groups: where
    the census holds a problem and its conjugate on the dual Grassmannian,
    the two must agree.
    """
    rng = random.Random(f"gr-census/{seed}")
    census = {space: _Census(*space) for space in CENSUS_SPACES}
    quota, left = {}, CENSUS_PROBLEMS
    for i, space in enumerate(sorted(CENSUS_SPACES, key=lambda s: len(census[s]))):
        quota[space] = min(len(census[space]), left // (len(CENSUS_SPACES) - i))
        left -= quota[space]
    posed = []  # (k, n, lams, family)
    for k, n in CENSUS_SPACES:
        for r in rng.sample(range(len(census[k, n])), quota[k, n]):
            lams = census[k, n].problem(r)
            posed.append((k, n, lams, rng.choice(FAMILIES)))
    problems = [_gr_problem(kind, k, n, lams, "count") for k, n, lams, kind in posed]
    problems += [_corank_problem(k, n, 2 * c, maps) for k, n, c, maps in _census_coranks()]
    order = list(range(len(problems)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    problems = [problems[i] for i in order]
    key_of = {(k, n, json.dumps(lams)): i for i, (k, n, lams, _) in enumerate(posed)}
    groups = []
    for i, (k, n, lams, _) in enumerate(posed):
        twin = sorted((_conjugate(lam) for lam in lams), key=lambda p: (-sum(p), p))
        j = key_of.get((n - k, n, json.dumps(twin)))
        if j is not None and i < j:
            groups.append(("conjugate", sorted([where[i], where[j]])))
    return Workload("gr-census", problems, _slices(len(problems), CENSUS_BATCHES), groups)


# ---------------------------------------------------------------------------
# gr-deep
# ---------------------------------------------------------------------------

# (k, n, number of count products of small conditions)
DEEP_SPACES = [(5, 10, 2), (6, 11, 3), (6, 12, 4), (7, 13, 4), (7, 14, 2)]
DEEP_SMALL = [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1)]


def gr_deep(seed):
    """Long products of small conditions on Gr(5,10) .. Gr(7,14).

    Per space: s1 to the dimension, count products of the conditions of
    DEEP_SMALL (DEEP_SPACES says how many) and one class product (about
    half the dimension, where classes are widest). Then the real even
    rank-drop problems with k^2 corank-2 maps on Gr(2k, R^4k), k = 5, 6.
    Each space is one batch file.

    What a long product costs, and what every later problem in the batch
    finds in the caches, depends strongly on which conditions are
    multiplied and in which order. Drawn per seed, they spread the session
    time over six seeds by 27% of its median. So the products and their
    order are fixed (drawn once from a fixed stream) and the seed picks the
    family (complex, real even, quaternionic) each count problem is posed
    on; every family is solved by the same complex product. Most problems
    are long, so that the median latency is that of a product of 50 ms or
    more: with a third of the problems under 30 ms, solve_p50_ms fell
    between the short and the long ones and moved by a fifth between runs.
    """
    recipes = random.Random("gr-deep recipes")
    rng = random.Random(f"gr-deep/{seed}")
    problems, batches = [], []
    for k, n, products in DEEP_SPACES:
        dim = k * (n - k)
        start = len(problems)
        counts = [[[1]] * dim] + [_fill(recipes, DEEP_SMALL, dim) for _ in range(products)]
        for lams in counts:
            problems.append(_gr_problem(rng.choice(FAMILIES), k, n, lams, "count"))
        problems.append(_gr_problem("complex", k, n, _fill(recipes, DEEP_SMALL, dim // 2), "class"))
        batches.append(list(range(start, len(problems))))
    start = len(problems)
    for k in (5, 6):
        problems.append(_corank_problem(k, 2 * k, 2, k * k))
    batches.append(list(range(start, len(problems))))
    return Workload("gr-deep", problems, batches, probe=PROBE_RECURSION, sessions=2)


# ---------------------------------------------------------------------------
# flag-poly
# ---------------------------------------------------------------------------


def _random_perm(rng, n, length):
    """A permutation of 1..n of the given length, by random length-raising swaps."""
    w = list(range(1, n + 1))
    while sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j]) < length:
        i = rng.randrange(n - 1)
        if w[i] < w[i + 1]:
            w[i], w[i + 1] = w[i + 1], w[i]
    return w


def _divisor(n, r):
    w = list(range(1, n + 1))
    w[r - 1], w[r] = w[r], w[r - 1]
    return w


def _min_rep(w, dims):
    out, pos = [], 0
    for d in dims:
        out.extend(sorted(w[pos:pos + d]))
        pos += d
    return out


def _osp(w, dims):
    out, pos = [], 0
    for d in dims:
        out.append(sorted(w[pos:pos + d]))
        pos += d
    return out


def _double_osp(osp):
    return [sorted(y for x in b for y in (2 * x - 1, 2 * x)) for b in osp]


def _flag_length(w, dims):
    rep = _min_rep(w, dims)
    return sum(1 for i in range(len(rep)) for j in range(i + 1, len(rep)) if rep[i] > rep[j])


def _flag_dim(dims):
    return sum(dims[i] * dims[j] for i in range(len(dims)) for j in range(i + 1, len(dims)))


def _flag_count(rng, dims, generals, max_general):
    """Conditions on Fl_dims: up to `generals` minimal representatives of
    length 2 .. max_general, then divisors at the block boundaries filling
    the rest of the dimension."""
    n = sum(dims)
    idx, left = [], _flag_dim(dims)
    for _ in range(generals):
        if left < 2:
            break
        length = rng.randint(2, min(max_general, left))
        while True:
            w = _min_rep(_random_perm(rng, n, length), dims)
            if _flag_length(w, dims) == length:
                break
        idx.append(w)
        left -= length
    cuts, acc = [], 0
    for d in dims[:-1]:
        acc += d
        cuts.append(acc)
    for _ in range(left):
        idx.append(_divisor(n, rng.choice(cuts)))
    return idx


def _flag_problem(kind, dims, idx, mode="count"):
    """Pose a complex flag problem (dims, one-line indices) on a family."""
    if kind == "complex":
        return {"space": {"type": "complex_flag", "dims": list(dims)},
                "conditions": _conditions(idx), "mode": mode}
    if kind == "real":
        osps = [_double_osp(_osp(w, dims)) for w in idx]
        return {"space": {"type": "real_even_flag", "dims": [2 * d for d in dims]},
                "conditions": _conditions(osps), "mode": "lower_bound"}
    if kind == "quaternionic":
        return {"space": {"type": "quaternionic_flag", "dims": list(dims)},
                "conditions": _conditions([_osp(w, dims) for w in idx]), "mode": "count"}
    return {"space": {"type": "octonionic_flag"}, "conditions": _conditions(idx),
            "mode": "count"}


# (dims, number of count problems with 0, 1, 2, ... general conditions)
FLAG_COUNT_SPACES = [
    ((1, 1, 1, 1), (1, 1, 1)), ((1, 1, 1, 1, 1), (2, 2, 2)), ((1, 1, 1, 1, 1, 1), (4, 4, 4)),
    ((2, 1, 2), (1, 2, 1)), ((1, 2, 2), (1, 2, 1)), ((1, 1, 2, 2), (2, 2, 2)),
    ((1, 2, 1, 2), (2, 2, 1)),
]
# (n, number of products, length range of each factor)
FLAG_CLASS_PRODUCTS = [(7, 36, (4, 7)), (8, 16, (4, 6))]


def _pose_flag(rng, dims, idx, kinds=FAMILIES):
    """A count problem on one of `kinds`, chosen by the seed."""
    return _flag_problem(rng.choice(kinds), dims, idx)


def flag_poly(seed):
    """Schubert-polynomial products on full and partial flags.

    Batch 1, counts: on each space of FLAG_COUNT_SPACES, problems with
    divisors only (on full flags the volume formula applies) and with one
    or two general conditions plus divisors; on each space one problem is
    posed on two families, and three Fl(1^3) problems are posed on both
    the complex and the octonionic flag. Batch 2, classes: products of two
    classes in S_7 and S_8 of bounded length (FLAG_CLASS_PRODUCTS), and a
    divisor times a class in each (Monk's rule applies).

    As in gr-deep the products and their order are fixed, drawn once from a
    fixed stream: one product of divisors costs fourteen times more in one
    order than in the other, and products in S_7 of factors of length 4 to
    7 range from 5 to 190 ms. The seed picks the family of each count problem and the
    order of the two factors of each class product.
    """
    recipes = random.Random("flag-poly recipes")
    rng = random.Random(f"flag-poly/{seed}")
    counts, groups = [], []
    for dims, per_generals in FLAG_COUNT_SPACES:
        for generals, copies in enumerate(per_generals):
            for _ in range(copies):
                counts.append(_pose_flag(rng, dims, _flag_count(recipes, dims, generals, 4)))
        idx = _flag_count(recipes, dims, 1, 4)
        first = rng.choice(FAMILIES)
        second = rng.choice([k for k in FAMILIES if k != first])
        groups.append(("halving", [len(counts), len(counts) + 1]))
        counts += [_pose_flag(rng, dims, idx, (first,)), _pose_flag(rng, dims, idx, (second,))]
    for _ in range(3):
        idx = [_divisor(3, recipes.choice((1, 2))) for _ in range(3)]
        groups.append(("halving", [len(counts), len(counts) + 1]))
        counts += [_pose_flag(rng, (1, 1, 1), idx, ("complex",)),
                   _pose_flag(rng, (1, 1, 1), idx, ("octonionic",))]
    classes = []
    for n, products, lengths in FLAG_CLASS_PRODUCTS:
        for _ in range(products):
            pair = [_random_perm(recipes, n, recipes.randint(*lengths)) for _ in range(2)]
            rng.shuffle(pair)
            classes.append(_flag_problem("complex", (1,) * n, pair, "class"))
        u = _random_perm(recipes, n, recipes.randint(4, 8))
        divisor = _divisor(n, recipes.randint(1, n - 1))
        classes.append(_flag_problem("complex", (1,) * n, [divisor, u], "class"))
    problems = counts + classes
    batches = [list(range(len(counts))), list(range(len(counts), len(problems)))]
    return Workload("flag-poly", problems, batches, groups, sessions=2)


WORKLOADS = {"gr-census": gr_census, "gr-deep": gr_deep, "flag-poly": flag_poly}


def write_inputs(w, out):
    """Write the program's inputs for workload `w` into directory `out`.

    p<i>.json holds problem i alone (the session's input), batch<b>.json the
    problems of batch b (one CLI process each), probe.json the probe.
    Returns (problem files, batch files, probe file or None).
    """
    def write(name, data):
        path = out / name
        path.write_text(json.dumps(data))
        return str(path)

    files = [write(f"p{i}.json", problem) for i, problem in enumerate(w.problems)]
    batch_files = [write(f"batch{b}.json", [w.problems[i] for i in members])
                   for b, members in enumerate(w.batches)]
    probe = write("probe.json", w.probe) if w.probe is not None else None
    return files, batch_files, probe


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="Write a workload's input files (what the program reads) to a directory."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    w = WORKLOADS[args.workload](args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(w, args.out)
    print(f"{len(w.problems)} problems in {len(w.batches)} batch files under {args.out}")
