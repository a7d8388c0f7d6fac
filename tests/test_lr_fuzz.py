"""Random arguments to `schubcalc lr`: every call ends in 0, 2 or 3.

Partitions are long single rows or columns (up to 2000 boxes), small
multi-row shapes, or malformed JSON. The third partition is often built
from the first two so that the coefficient can be nonzero; multi-row
shapes stay small so that every skew tableau count is quick. Small
answers are checked against the per-box tableau count of the oracle.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from lr_oracle import count_lr_tableaux
from schubcalc.cli import main

ROW = st.integers(1, 2000).map(lambda n: [n])
COLUMN = st.integers(1, 2000).map(lambda n: [1] * n)
SMALL = st.lists(st.integers(1, 5), max_size=4).map(lambda p: sorted(p, reverse=True))
PARTITION = st.one_of(ROW, COLUMN, SMALL)
JUNK = st.one_of(
    st.lists(st.integers(-3, 6), max_size=4),
    st.sampled_from(["[1,", "{}", "null", "3", '"a"', "[1.5]", "[true]", "[[1]]", "-1", ""]),
    st.text(max_size=6),
)


def combine(lam, mu, how):
    """A partition of size |lam| + |mu| that contains both."""
    if how == "rows":
        n = max(len(lam), len(mu))
        pad = lambda p: p + [0] * (n - len(p))
        return [a + b for a, b in zip(pad(lam), pad(mu))]
    return sorted(lam + mu, reverse=True)


@st.composite
def lr_args(draw):
    lam, mu = draw(PARTITION), draw(PARTITION)
    how = draw(st.sampled_from(["rows", "columns", "free", "junk"]))
    nu = draw(PARTITION) if how == "free" else combine(lam, mu, how)
    args = [lam, mu, nu]
    if how == "junk":
        args[draw(st.integers(0, 2))] = draw(JUNK)
    return [a if isinstance(a, str) else json.dumps(a) for a in args]


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lr_args())
def test_random_lr_calls_end_in_a_known_exit_code(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["lr", *args])
        except SystemExit as exc:  # argparse rejects an argument that looks like an option
            code = exc.code
    assert code in (0, 2, 3), (args, err.getvalue())
    if code:
        assert "error:" in err.getvalue()
        return
    value = json.loads(out.getvalue())["result"]
    assert isinstance(value, int) and value >= 0
    lam, mu, nu = (tuple(p for p in json.loads(a) if p) for a in args)
    if sum(lam) + sum(mu) <= 12:
        assert value == count_lr_tableaux(lam, mu, nu), args
