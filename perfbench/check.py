"""Expected answers for problem files, and checks of the program's reports.

The expected answer of every problem is computed here from the documented
problem format (docs/problem-format.md) with the reference computations in
oracle.py; nothing is read from the program. Where a closed form covers a
problem (s1 powers, corank-2 maps on Gr(2k, R^4k), divisor-only full flags,
a degree-one factor in a flag product) it must agree as well.
"""

import json

import oracle


class CheckError(Exception):
    """An answer of the program, or of a reference computation, is wrong."""


def _halve_partition(lam):
    if len(lam) % 2 or any(lam[i] != lam[i + 1] or lam[i] % 2 for i in range(0, len(lam), 2)):
        raise CheckError(f"{lam} is not a doubled partition")
    return [lam[i] // 2 for i in range(0, len(lam), 2)]


def _halve_osp(osp):
    out = []
    for block in osp:
        letters = set(block)
        if len(block) % 2 or any(x % 2 and x + 1 not in letters for x in block):
            raise CheckError(f"{osp} is not a doubled set partition")
        out.append(sorted((x + 1) // 2 for x in block if x % 2))
    return out


def _min_rep(index, dims):
    """A permutation (one-line) or ordered set partition, as the minimal
    coset representative: the blocks' sorted values concatenated."""
    if index and isinstance(index[0], list):
        blocks = index
    else:
        blocks, pos = [], 0
        for d in dims:
            blocks.append(index[pos:pos + d])
            pos += d
    return tuple(x for b in blocks for x in sorted(b))


def _grassmannian(space):
    """(k, n, halve) of the complex space the problem is computed on."""
    kind = space["type"]
    if kind == "real_even_grassmannian":
        return space["k"] // 2, space["n"] // 2, True
    return space["k"], space["n"], False


def _flag(space):
    """(dims, halve) of the complex flag variety the problem is computed on."""
    kind = space["type"]
    if kind == "octonionic_flag":
        return (1, 1, 1), False
    if kind == "real_even_flag":
        return tuple(d // 2 for d in space["dims"]), True
    return tuple(space["dims"]), False


_GR_ORACLES = {}


def _gr_oracle(k, l):
    if (k, l) not in _GR_ORACLES:
        _GR_ORACLES[k, l] = oracle.GrOracle(k, l)
    return _GR_ORACLES[k, l]


def expected(problem):
    """(kind, value): ("count", int) or ("class", {index tuple: int})."""
    space = problem["space"]
    conds = problem["conditions"]
    mode = problem.get("mode", "count")
    kind = "class" if mode == "class" else "count"
    if space["type"].endswith("grassmannian"):
        k, n, halve = _grassmannian(space)
        gr = _gr_oracle(k, n - k)
        vec = gr.unit()
        for cond in conds:
            for _ in range(cond["count"]):
                if "corank" in cond:
                    vec = gr.times_locus(vec, cond["corank"] // 2)
                else:
                    lam = cond["index"]
                    vec = gr.times_schubert(vec, _halve_partition(lam) if halve else lam)
        if kind == "count":
            return kind, gr.integrate(vec)
        return kind, {tuple(p for p in lam if p): c for lam, c in vec.items()}
    dims, halve = _flag(space)
    factors = []
    for cond in conds:
        index = cond["index"]
        if halve:
            index = _halve_osp(index)
        factors += [_min_rep(index, dims)] * cond["count"]
    product = oracle.flag_product(sum(dims), factors)
    if kind == "count":
        return kind, product.get(oracle.top_representative(dims), 0)
    return kind, product


def closed_form(problem):
    """A second expected value from a closed form, or None if none applies."""
    space, conds = problem["space"], problem["conditions"]
    if problem.get("mode") == "class":
        if len(conds) == 2 and conds[0]["count"] == 1 and conds[1]["count"] == 1:
            n = len(conds[0]["index"])
            first, second = conds[0]["index"], conds[1]["index"]
            if oracle.perm_length(first) == 1:
                r = next(i for i in range(n - 1) if first[i] > first[i + 1]) + 1
                return oracle.monk({tuple(second): 1}, r)
        return None
    if space["type"] == "complex_grassmannian" and len(conds) == 1:
        k, n = space["k"], space["n"]
        if conds[0].get("index") == [1] and conds[0]["count"] == k * (n - k):
            return oracle.hook_length_count(k, n - k)
    if space["type"] == "real_even_grassmannian" and len(conds) == 1:
        k, n = space["k"] // 2, space["n"] // 2
        if n == 2 * k and conds[0].get("corank") == 2 and conds[0]["count"] == k * k:
            return 2 ** (k * k) * oracle.hook_length_count(k, k)
    if space["type"] == "complex_flag" and all(d == 1 for d in space["dims"]):
        n = len(space["dims"])
        m = [0] * (n - 1)
        for cond in conds:
            w = cond["index"]
            if oracle.perm_length(w) != 1:
                return None
            m[next(i for i in range(n - 1) if w[i] > w[i + 1])] += cond["count"]
        return oracle.divisor_volume_count(n, m)
    return None


def _class_terms(result):
    terms = {}
    for term in result["terms"]:
        key = "partition" if "partition" in term else "permutation"
        terms[tuple(term[key])] = int(term["coeff"])
    return terms


def _degree(space, index):
    if space["type"] == "complex_grassmannian":
        return sum(index)
    return oracle.perm_length(_min_rep(index, space["dims"]))


def check_report(problem, report, want):
    """Raise CheckError unless `report` answers `problem` with `want`."""
    if report.get("input") != problem:
        raise CheckError("the report does not echo its problem")
    kind, value = want
    result = report.get("result")
    if kind == "count":
        if isinstance(result, bool) or not isinstance(result, (int, str)):
            raise CheckError(f"count result {result!r} is not an integer")
        got = int(result)
        if isinstance(result, str) and abs(got) < 2 ** 63:
            raise CheckError(f"{got} fits in 63 bits but was sent as a string")
        if got != value:
            raise CheckError(f"result {got}, expected {value}")
        return
    got = _class_terms(result)
    space = problem["space"]
    total = sum(_degree(space, c["index"]) * c["count"] for c in problem["conditions"])
    for index, c in got.items():
        if c <= 0:
            raise CheckError(f"class term {index} has coefficient {c}")
        if _degree(space, list(index)) != total:
            raise CheckError(f"class term {index} is not of degree {total}")
    if got != value:
        wrong = sorted(set(got) ^ set(value) | {i for i in got if got[i] != value.get(i)})
        raise CheckError(f"class differs from the reference at {wrong[:3]}")


def expected_all(problems):
    """Expected answers of all problems; each closed form must agree too."""
    cache, out = {}, []
    for problem in problems:
        key = json.dumps(problem, sort_keys=True)
        want = cache.get(key)
        if want is None:
            want = expected(problem)
            extra = closed_form(problem)
            if extra is not None and extra != want[1]:
                raise CheckError(f"reference and closed form disagree on {key}")
            cache[key] = want
        out.append(want)
    return out


def check_groups(groups, reports):
    """Problems of one group (halvings, conjugate twins) share one answer."""
    for kind, members in groups:
        values = {json.dumps(reports[i]["result"]) for i in members}
        if len(values) != 1:
            raise CheckError(f"{kind} group {members} disagrees: {sorted(values)}")
