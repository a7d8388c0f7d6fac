"""Random problem files through `schubcalc solve`: every one ends in 0, 2 or 3.

Problems stay inside the file schema (spaces with n <= 6, flags on up to
four letters). Most indices are drawn to fit their space, the rest freely,
and modes, coranks and counts are picked at random, so the examples mix
answers with malformed and unsolvable problems. Counts reach 10**12: a
problem that is multiplied out once per count never finishes.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from schubcalc.cli import main

GRASSMANNIANS = ("complex_grassmannian", "real_even_grassmannian", "quaternionic_grassmannian")
FLAGS = ("complex_flag", "real_even_flag", "quaternionic_flag")
MODES = ("count", "class", "lower_bound", "other")

COUNT = st.one_of(st.integers(1, 4), st.just(10**12), st.integers(-1, 10**12))
WILD_INDEX = st.one_of(
    st.lists(st.integers(-1, 7), max_size=4),
    st.lists(st.lists(st.integers(-1, 7), max_size=3), max_size=3),
)


def cut(letters, dims):
    out, pos = [], 0
    for d in dims:
        out.append(sorted(letters[pos:pos + d]))
        pos += d
    return out


@st.composite
def space(draw):
    kind = draw(st.sampled_from(GRASSMANNIANS + FLAGS + ("octonionic_flag",)))
    if kind in GRASSMANNIANS:
        if kind == "real_even_grassmannian":
            n = 2 * draw(st.integers(2, 3))
            k = 2 * draw(st.integers(1, n // 2 - 1))
        else:
            n = draw(st.integers(2, 6))
            k = draw(st.integers(1, n - 1))
        return {"type": kind, "k": k, "n": n}
    if kind in FLAGS:
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        while sum(dims) > 4 and len(dims) > 1:
            dims.pop()
        if kind == "real_even_flag":
            dims = [2 * d for d in dims]
        return {"type": kind, "dims": dims}
    return {"type": kind}


@st.composite
def fitting_index(draw, sp):
    """An index shaped for the space, doubled on real even spaces."""
    kind = sp["type"]
    if kind in GRASSMANNIANS:
        halve = 2 if kind == "real_even_grassmannian" else 1
        rows, cols = sp["k"] // halve, (sp["n"] - sp["k"]) // halve
        lam = sorted(draw(st.lists(st.integers(0, cols), max_size=rows)), reverse=True)
        if halve == 2:
            lam = [2 * p for p in lam for _ in range(2)]
        return lam
    if kind == "octonionic_flag":
        w = draw(st.permutations([1, 2, 3]))
        return w if draw(st.booleans()) else [[x] for x in w]
    halve = 2 if kind == "real_even_flag" else 1
    dims = [d // halve for d in sp["dims"]]
    w = draw(st.permutations(list(range(1, sum(dims) + 1))))
    if halve == 2:
        w = [y for x in w for y in (2 * x - 1, 2 * x)]
        dims = [2 * d for d in dims]
    return w if draw(st.integers(0, 3)) == 3 else cut(w, dims)


@st.composite
def problem(draw):
    sp = draw(space())
    if sp["type"] == "real_even_grassmannian" and draw(st.booleans()):
        conditions = [{"corank": draw(st.integers(-2, 12)), "count": draw(COUNT)}]
    else:
        conditions = []
    for _ in range(draw(st.integers(0 if conditions else 1, 4))):
        roll = draw(st.integers(0, 19))
        if roll == 19:
            conditions.append({"corank": draw(st.integers(-2, 12)), "count": draw(COUNT)})
            continue
        index = draw(WILD_INDEX) if roll > 15 else draw(fitting_index(sp))
        conditions.append({"index": index, "count": draw(COUNT)})
    out = {"space": sp, "conditions": conditions}
    if draw(st.integers(0, 5)) == 0:
        out["mode"] = draw(st.sampled_from(MODES))
    return out


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(problem())
def test_random_problems_end_in_a_known_exit_code(problem):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--input", path])
    assert code in (0, 2, 3), (problem, err.getvalue())
    if code:
        assert "error:" in err.getvalue()
    else:
        json.loads(out.getvalue())
