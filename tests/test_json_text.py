"""The report writer, `cli._json_text`, and the batch writer, `cli._render`
with `cli._write`, against their oracle, the standard library's
`json.dumps(value, indent=2)`."""

import io
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from schubcalc.cli import _json_text, _render, _report, _report_text, _write, main

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


@settings(max_examples=100, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=4))
def test_a_batch_is_written_as_json_dumps_writes_it(values):
    # one piece per report, each one level in after "[" or ","
    pieces = _render(values, "json")
    assert len(pieces) == len(values)
    assert "".join(pieces) == json.dumps(values, indent=2) + "\n"


def test_a_text_batch_is_its_reports_joined_by_blank_lines():
    reports = [_report({"n": i}, i, "read") for i in range(1, 4)]
    pieces = _render(reports, "text")
    assert len(pieces) == 3
    assert "".join(pieces) == "\n".join(
        f"problem {i}:\n" + _report_text(r) for i, r in enumerate(reports, start=1)
    )
    assert _render(reports[0], "text") == ["result: 1\nprovenance: read\n"]


class ByteCounter(io.RawIOBase):
    """A sink that keeps nothing but the number of bytes written to it."""

    def __init__(self):
        self.count = 0

    def writable(self):
        return True

    def write(self, data):
        self.count += len(data)
        return len(data)


def traced_write(payload):
    """The tracemalloc peak of rendering payload as JSON and writing it to
    a sink, and the number of bytes written."""
    sink = ByteCounter()
    stream = io.TextIOWrapper(sink, encoding="utf-8")
    tracemalloc.start()
    try:
        _write(stream, _render(payload, "json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.count


def test_a_batch_is_written_in_memory_near_its_size():
    # rendered one report at a time and encoded one piece at a time, a
    # batch's output costs little more than its own text, not five times it
    term = {"permutation": [2, 1, 3, 4, 5, 6, 7], "coeff": "1"}
    reports = [
        _report({"space": {"type": "complex_flag", "dims": [1] * 7}, "index": [i]},
                {"space": {"type": "complex_flag", "dims": [1] * 7}, "terms": [term] * 3},
                "expanded the product in the Schubert basis")
        for i in range(400)
    ]
    peak, written = traced_write(reports)
    assert written == len(json.dumps(reports, indent=2)) + 1
    assert peak < 2 * written, (peak, written)


def test_a_deep_echo_is_written_in_memory_near_its_size():
    # each level of nesting passes down only its own short lead, so the
    # memory of a deep report grows as its output does (with the square of
    # the depth), not with the cube
    depth = 900
    deep = 1.5
    for _ in range(depth):
        deep = [deep]
    reports = [_report({"n": 1}, 1, "read"), _report({"extra": deep}, 2, "read")]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    try:
        peak, written = traced_write(reports)
    finally:
        sys.setrecursionlimit(limit)
    assert written > 2 * depth * depth
    assert peak < 3 * written, (peak, written)


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
