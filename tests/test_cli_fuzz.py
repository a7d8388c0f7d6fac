"""Random arguments to `mult`, `giambelli`, `porteous` and `kappa`: every
call ends in 0, 2 or 3, with an `error:` line whenever it is not 0.

Each command mostly gets a space it accepts, and sometimes any other or a
malformed one. Spaces stay at n <= 6 (real even flags at three letters
halved), so every product is small. Class arguments are fitting indices,
`terms` objects with integer, rational and malformed coefficients,
free-form indices, or broken JSON. Porteous ranks go up to 16, and now and
then the source rank is in the thousands with f = rho, where the locus
determinant would have thousands of rows.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from schubcalc.cli import main
from test_solve_fuzz import WILD_INDEX, fitting_index

GRASSMANNIANS = ("complex_grassmannian", "real_even_grassmannian", "quaternionic_grassmannian")
FLAGS = ("complex_flag", "real_even_flag", "quaternionic_flag")
ACCEPTED = {
    "mult": ("complex_grassmannian", "complex_flag", "real_even_grassmannian", "real_even_flag"),
    "giambelli": ("complex_grassmannian",),
    "porteous": ("complex_grassmannian",),
    "kappa": ("octonionic_flag",) + GRASSMANNIANS[1:] + FLAGS[1:],
}
TERM_KEYS = ("partition", "permutation", "osp", "index")
MISSING = object()
COEFF = st.one_of(
    st.just(MISSING),
    st.integers(-3, 3),
    st.sampled_from(["1/2", "1/4", "-2/3", "3/8"]),
    st.sampled_from(["x", "1/0", "1e999999999", 1.5, True, None]),
)
JUNK = st.sampled_from([
    "[1,", "{}", '{"terms": []}', '{"terms": [{"exponent": [1]}]}', "null", "3", '"a"',
    "[1.5]", "[true]", "[[]]", "",
])
JUNK_SPACE = st.sampled_from([
    '{"type": "complex_grassmannian", "k": 0, "n": 4}',
    '{"type": "real_even_flag", "dims": [1, 2]}',
    '{"type": "torus"}',
    "[]",
    "{",
])


@st.composite
def space(draw, accepted):
    kinds = accepted if draw(st.integers(0, 4)) else GRASSMANNIANS + FLAGS + ("octonionic_flag",)
    kind = draw(st.sampled_from(kinds))
    if kind == "real_even_grassmannian":
        n = 2 * draw(st.integers(2, 3))
        return {"type": kind, "k": 2 * draw(st.integers(1, n // 2 - 1)), "n": n}
    if kind in GRASSMANNIANS:
        n = draw(st.integers(2, 6))
        return {"type": kind, "k": draw(st.integers(1, n - 1)), "n": n}
    if kind in FLAGS:
        limit = 3 if kind == "real_even_flag" else 6
        dims = draw(st.lists(st.integers(1, limit), min_size=1, max_size=limit))
        while sum(dims) > limit and len(dims) > 1:
            dims.pop()
        if kind == "real_even_flag":
            dims = [2 * d for d in dims]
        return {"type": kind, "dims": dims}
    return {"type": kind}


@st.composite
def class_arg(draw, sp):
    form = draw(st.sampled_from(["index", "terms", "terms", "wild", "junk"]))
    if form == "index":
        return json.dumps(draw(fitting_index(sp)))
    if form == "wild":
        return json.dumps(draw(WILD_INDEX))
    if form == "junk":
        return draw(JUNK)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        index = draw(fitting_index(sp)) if draw(st.integers(0, 9)) else draw(WILD_INDEX)
        entry = {draw(st.sampled_from(TERM_KEYS)): index}
        coeff = draw(COEFF)
        if coeff is not MISSING:
            entry["coeff"] = coeff
        terms.append(entry)
    return json.dumps({"terms": terms})


@st.composite
def porteous_args(draw, sp):
    e, f = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    rho = draw(st.integers(-1, min(e, f) + 1))
    if not draw(st.integers(0, 9)):
        # a vacuous rank bound on a huge source: the locus is the unit
        e, f = draw(st.integers(1000, 5000)), rho
    codim = (e - rho) * (f - rho)
    if sp["type"] == "complex_grassmannian" and codim > 0 and draw(st.booleans()):
        maps = sp["k"] * (sp["n"] - sp["k"]) // codim
    else:
        maps = draw(st.one_of(st.integers(-1, 10), st.just(10**12)))
    return [str(v) for v in (e, f, rho, maps)]


@st.composite
def command(draw):
    name = draw(st.sampled_from(sorted(ACCEPTED)))
    sp = draw(space(ACCEPTED[name]))
    space_text = json.dumps(sp) if draw(st.integers(0, 9)) else draw(JUNK_SPACE)
    argv = [name, "--space", space_text]
    if name == "mult":
        argv += [draw(class_arg(sp)), draw(class_arg(sp))]
    elif name == "porteous":
        argv += draw(porteous_args(sp))
    else:
        argv.append(draw(class_arg(sp)))
    return argv + draw(st.sampled_from([[], ["--format", "text"]]))


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(command())
def test_random_commands_end_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert "error:" in err.getvalue(), argv
    elif "--format" not in argv:
        json.loads(out.getvalue())
