"""The report writer, `cli._json_text`, against its oracle, the standard
library's `json.dumps(value, indent=2)`."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc.cli import _json_text, main

FIXTURES = sorted((Path(__file__).parent.parent / "docs" / "fixtures").glob("*.json"))

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()  # NaN and both infinities among them
    | st.sampled_from([-0.0, 1e300, -1e-300, 5e-324, float("nan"), float("-inf")])
    | st.text()
    | st.text(st.characters(min_codepoint=0x80))  # non-ASCII, surrogates included
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner)
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_the_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_the_writer_matches_json_dumps_on_edge_values():
    for value in [
        {}, [], (), [[], {}, ()], {"": {"": []}}, (1, (2.5, ("x",))),
        "é ☃ \U0001d11e \ud800 \x00\"\\\n", -0.0, 1e300, 10 ** 300, -(10 ** 300),
        [float("nan"), float("inf"), -float("inf"), True, False, None],
    ]:
        assert _json_text(value) == json.dumps(value, indent=2), value


def test_the_writer_refuses_what_json_refuses_and_keys_that_are_not_strings():
    for value in [{"a": {1.5}}, [object()]]:
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)
    # json.loads makes only string keys, and so does every report
    with pytest.raises(TypeError):
        _json_text({1: 2})


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_fixtures_and_their_reports_are_written_as_json_dumps_writes_them(path, capsys):
    payload = json.loads(path.read_text())
    assert _json_text(payload) == json.dumps(payload, indent=2)
    assert main(["solve", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
