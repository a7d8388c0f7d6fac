import itertools
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import schubcalc
import schubcalc.cli as cli
import schubcalc.grassmann
import schubcalc.halving
import schubcalc.schur
from schubcalc.cli import main
from schubcalc.errors import DegreeOutOfRange
from schubcalc.selftest import run_selftest
from schubcalc.serialize import ProblemSchemaError, parse_problem

GR24 = {"type": "complex_grassmannian", "k": 2, "n": 4}
GR36 = {"type": "complex_grassmannian", "k": 3, "n": 6}
GR48 = {"type": "complex_grassmannian", "k": 4, "n": 8}
GR4R8 = {"type": "real_even_grassmannian", "k": 4, "n": 8}
GR6R8 = {"type": "real_even_grassmannian", "k": 6, "n": 8}
GR2H4 = {"type": "quaternionic_grassmannian", "k": 2, "n": 4}
OCT = {"type": "octonionic_flag"}
FL3 = {"type": "complex_flag", "dims": [1, 1, 1]}


def problem(space, conditions, **extra):
    return {"space": space, "conditions": conditions, **extra}


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_json(capsys, tmp_path, payload, *flags):
    path = write_problem(tmp_path, payload)
    code, out, err = run_cli(capsys, ["solve", "--input", path, *flags])
    return code, out, err


def test_solve_single_count(capsys, tmp_path):
    payload = problem(GR24, [{"index": [1], "count": 4}])
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == 2
    assert report["input"] == payload
    assert "provenance" in report
    assert "elapsed_ms" in err
    assert "elapsed_ms" not in out


def test_solve_class_mode(capsys, tmp_path):
    payload = problem(GR24, [{"index": [1], "count": 2}], mode="class")
    code, out, _ = solve_json(capsys, tmp_path, payload)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["terms"] == [
        {"partition": [1, 1], "coeff": "1"},
        {"partition": [2], "coeff": "1"},
    ]


def test_solve_mode_override(capsys, tmp_path):
    payload = problem(GR24, [{"index": [1], "count": 2}])
    code, out, _ = solve_json(capsys, tmp_path, payload, "--mode", "class")
    assert code == 0
    assert isinstance(json.loads(out)["result"], dict)


def test_solve_all_families(capsys, tmp_path):
    batch = [
        problem(GR48, [{"index": [2, 2], "count": 4}]),
        problem(GR4R8, [{"index": [2, 2], "count": 4}]),
        problem(GR2H4, [{"index": [1], "count": 4}]),
        problem(OCT, [{"index": [2, 1, 3], "count": 2}, {"index": [1, 3, 2], "count": 1}]),
        problem(GR4R8, [{"corank": 2, "count": 4}]),
        problem(FL3, [{"index": [2, 1, 3], "count": 2}, {"index": [1, 3, 2], "count": 1}]),
    ]
    code, out, _ = solve_json(capsys, tmp_path, batch)
    assert code == 0
    reports = json.loads(out)
    assert [r["result"] for r in reports] == [6, 2, 2, 1, 32, 1]
    assert [r["input"] for r in reports] == batch


def test_solve_batch_is_input_ordered_and_deterministic(capsys, tmp_path):
    batch = [
        problem(GR24, [{"index": [1], "count": 4}]),
        problem(GR48, [{"index": [2, 2], "count": 4}]),
        problem(GR24, [{"index": [2, 2], "count": 1}]),
    ]
    path = write_problem(tmp_path, batch)
    outputs = set()
    for jobs in ("1", "3"):
        code, out, _ = run_cli(capsys, ["solve", "--input", path, "--jobs", jobs])
        assert code == 0
        outputs.add(out)
        assert [r["result"] for r in json.loads(out)] == [2, 6, 1]
    assert len(outputs) == 1


def test_solve_text_format(capsys, tmp_path):
    batch = [
        problem(GR24, [{"index": [1], "count": 4}]),
        problem(FL3, [{"index": [2, 1, 3], "count": 1}], mode="class"),
    ]
    code, out, _ = solve_json(capsys, tmp_path, batch, "--format", "text")
    assert code == 0
    assert "problem 1:" in out
    assert "result: 2" in out
    assert "result: S[2, 1, 3]" in out


def test_solve_exit_codes(capsys, tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{nope")
    code, _, err = run_cli(capsys, ["solve", "--input", str(bad_json)])
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, ["solve", "--input", str(tmp_path / "missing.json")])
    assert code == 2

    for payload, expected in [
        (problem({"type": "nowhere"}, [{"index": [1]}]), 2),
        (problem(GR24, [{"index": [5], "count": 1}]), 2),
        (problem(GR24, []), 2),
        (problem(GR24, [{"index": [1], "count": 3}]), 3),
        (problem(GR4R8, [{"index": [2, 1], "count": 1}, {"index": [2, 2], "count": 1}]), 3),
        (problem(GR4R8, [{"corank": 10}]), 2),
        (problem(GR6R8, [{"corank": 2, "count": 3}]), 2),
        (problem(GR24, [{"index": [1], "count": 10**12}]), 3),
    ]:
        code, _, err = solve_json(capsys, tmp_path, payload)
        assert code == expected, (payload, err)
        assert "error:" in err


@pytest.mark.parametrize(
    "space,good,bad",
    [
        (GR24, [1], [3]),
        (GR4R8, [2, 2], [6, 6]),
        ({"type": "complex_flag", "dims": [2, 1]}, [1, 3, 2], [2, 1, 3]),
        ({"type": "complex_flag", "dims": [2, 1]}, [[1, 3], [2]], [[1], [2], [3]]),
        ({"type": "real_even_flag", "dims": [2, 2]}, [[1, 2], [3, 4]], [[1, 2, 3], [4]]),
    ],
)
def test_index_errors_name_their_condition(capsys, tmp_path, space, good, bad):
    # the index is read once, at parse time, so the message says which one
    payload = problem(space, [{"index": good, "count": 1}, {"index": bad, "count": 1}])
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert (code, out) == (2, ""), err
    assert "condition 2" in err


def test_oversized_json_integers_end_cleanly(capsys, tmp_path):
    # Python 3.11+ refuses to read a JSON integer of more than 4300 digits;
    # before that limit the count is read and fails the degree check.
    big = "9" * 5000
    path = tmp_path / "big.json"
    path.write_text(
        f'{{"space": {json.dumps(GR24)}, "conditions": [{{"index": [1], "count": {big}}}]}}'
    )
    code, _, err = run_cli(capsys, ["solve", "--input", str(path)])
    assert code in (2, 3), err
    assert "error:" in err and "Traceback" not in err
    cls = f'{{"terms": [{{"partition": [1], "coeff": {big}}}]}}'
    code, _, err = run_cli(capsys, ["mult", "--space", json.dumps(GR24), cls, "[1]"])
    assert code in (0, 2), err
    assert "Traceback" not in err


def test_input_file_that_is_not_utf8_is_named(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(problem(GR24, [{"index": [1]}])).encode("utf-16-le"))
    code, out, err = run_cli(capsys, ["solve", "--input", str(path)])
    assert (code, out) == (2, ""), err
    assert f"error: cannot read {path}: 'utf-8' codec can't decode" in err


def test_json_nested_past_the_recursion_limit_exits_two(capsys, tmp_path):
    deep = "[" * 100000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    code, out, err = run_cli(capsys, ["solve", "--input", str(path)])
    assert (code, out) == (2, ""), err
    assert "error: the problem file is not valid JSON: nested too deeply" in err
    code, out, err = run_cli(capsys, ["lr", deep, "[1]", "[1]"])
    assert (code, out) == (2, ""), err
    assert "error: lam is not valid JSON: nested too deeply" in err


def deep_echo_run(depth, leaf, batch):
    """`python -m schubcalc solve` on a problem whose unknown key nests the
    JSON text `leaf` in `depth` lists; the report nests the echo one level
    (two in a batch) deeper than the file does."""
    entry = problem(GR24, [{"index": [1], "count": 4}])
    text = json.dumps(entry)[:-1] + ', "extra": ' + "[" * depth + leaf + "]" * depth + "}"
    if batch:
        text = f"[{text}]"
    return subprocess.run(
        [sys.executable, "-m", "schubcalc", "solve", "--input", "-"],
        input=text, capture_output=True, text=True, timeout=60,
    )


def test_deep_echoes_end_in_exit_zero_or_two():
    # whatever nesting the reader takes, the run ends in exit 0 with the
    # bytes of json.dumps(indent=2), or in exit 2, never in a traceback.
    # Depth 980 is well inside every reader; at 986-987 the 3.11 reader
    # still takes the file while json.dumps(indent=2) ran out of frames
    runs = [
        (depth, leaf, batch)
        for leaf in ("1.5", '{"a": 1.5}', "[1]")
        for batch in (False, True)
        for depth in (980, 986, 987)
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda run: deep_echo_run(*run), runs))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        for run, proc in zip(runs, procs):
            assert proc.returncode in (0, 2), (run, proc.stderr)
            if proc.returncode == 2:
                assert proc.stdout == "", run
                assert "nested too deeply" in proc.stderr, run
                continue
            report = json.loads(proc.stdout)
            assert proc.stdout == json.dumps(report, indent=2) + "\n", run
            assert (report[0] if run[2] else report)["result"] == 2, run
    finally:
        sys.setrecursionlimit(limit)


def test_a_report_past_the_recursion_limit_exits_two(capsys):
    # the reader and the writer need not share one depth limit (3.12+
    # json.loads has a C guard of its own), so a report the writer cannot
    # nest is refused before anything is printed
    echo = 1.5
    for _ in range(sys.getrecursionlimit() + 10):
        echo = [echo]
    report = cli._report(echo, "2", "read")
    with pytest.raises(ProblemSchemaError, match="nested too deeply"):
        cli._emit([report], "json", batch=False)
    assert capsys.readouterr().out == ""


def test_coefficients_past_the_str_digit_limit_are_written_exactly(capsys):
    # str() of an int refuses more than 4300 digits on 3.11+; the output
    # writer has no such limit, while input keeps it (test above)
    factor = json.dumps({"terms": [{"partition": [1], "coeff": "9" * 3000}]})
    code, out, err = run_cli(capsys, ["mult", "--space", json.dumps(GR24), factor, factor])
    assert code == 0, err
    square = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10^3000 - 1)^2
    assert json.loads(out)["result"]["terms"] == [
        {"partition": [1, 1], "coeff": square},
        {"partition": [2], "coeff": square},
    ]
    cls = json.dumps({"terms": [{"partition": [4, 4, 4, 4], "coeff": "9" * 4299}]})
    code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(GR4R8), cls])
    assert code == 0, err
    report = json.loads(out)
    assert report["input"]["class"]["terms"][0]["coeff"] == "9" * 4299
    # 2^|(2, 2)| (10^4299 - 1) = 16 * 10^4299 - 16
    assert report["result"]["terms"] == [
        {"partition": [2, 2], "coeff": "15" + "9" * 4297 + "84"}
    ]


def test_solve_skips_work_the_degree_rules_out(capsys, tmp_path):
    # A count of 10**12 must be settled by the degree check alone: nothing
    # may be multiplied once per count.
    payload = problem(GR24, [{"index": [1], "count": 10**12}], mode="class")
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 0, err
    assert json.loads(out)["result"] == {"space": GR24, "terms": []}

    payload = problem(
        GR4R8, [{"index": [], "count": 10**12}, {"index": [2, 2], "count": 4}]
    )
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 0, err
    assert json.loads(out)["result"] == 2

    # only degree-0 conditions: the product is the unit class
    payload = problem(GR24, [{"index": []}, {"index": [0], "count": 10**12}], mode="class")
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 0, err
    assert json.loads(out)["result"] == {
        "space": GR24, "terms": [{"partition": [], "coeff": "1"}]
    }


def test_solve_octonionic_short_permutation(capsys, tmp_path):
    # [2, 1] is the permutation [2, 1, 3] of the three letters, and so is the
    # set partition [[2], [1], [3]]; [[1, 2], [3]] is no permutation.
    for s1, s2 in (([2, 1], [1, 3, 2]), ([[2], [1], [3]], [[1], [3], [2]])):
        payload = problem(OCT, [{"index": s1, "count": 2}, {"index": s2}])
        code, out, err = solve_json(capsys, tmp_path, payload)
        assert code == 0, err
        assert json.loads(out)["result"] == 1
    code, _, err = solve_json(capsys, tmp_path, problem(OCT, [{"index": [[1, 2], [3]]}]))
    assert code == 2
    assert "error:" in err


def test_solve_divisor_volume_in_either_order(capsys, tmp_path):
    # D_1 D_2^2 ... D_5^5 on Fl(1^6), listed in both orders.
    n = 6
    conditions = []
    for r in range(1, n):
        w = list(range(1, n + 1))
        w[r - 1], w[r] = w[r], w[r - 1]
        conditions.append({"index": w, "count": r})
    space = {"type": "complex_flag", "dims": [1] * n}
    for order in (conditions, conditions[::-1]):
        code, out, err = solve_json(capsys, tmp_path, problem(space, order))
        assert code == 0, err
        assert json.loads(out)["result"] == 1


def test_solve_class_mode_in_every_condition_order(capsys, tmp_path):
    # [1], [2, 1] and [1, 1] on Gr(3, 6), listed in all six orders
    conditions = [{"index": [1]}, {"index": [2, 1]}, {"index": [1, 1]}]
    outputs = set()
    for order in itertools.permutations(conditions):
        payload = problem(GR36, list(order), mode="class")
        code, out, err = solve_json(capsys, tmp_path, payload, "--format", "text")
        assert code == 0, err
        outputs.add(out)
    assert outputs == {
        "result: s[2, 2, 2] + 3*s[3, 2, 1] + s[3, 3]\n"
        "provenance: expanded the condition product in the Schubert basis"
        " of the ambient space\n"
    }


def test_unmapped_domain_error_exits_three(monkeypatch, capsys, tmp_path):
    def fail(parsed):
        raise DegreeOutOfRange("no Chern class in degree 9")

    monkeypatch.setattr(schubcalc.halving, "solve", fail)
    payload = problem(GR24, [{"index": [1], "count": 4}])
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 3
    assert out == ""
    assert "error: DegreeOutOfRange: no Chern class in degree 9" in err
    assert "Traceback" not in err


def test_long_flag_keys_are_rejected_quickly(capsys, tmp_path):
    # 20 conditions of the longest permutation of S_3000: their lengths are
    # summed before the degree is compared with the dimension, so counting
    # inversions pair by pair (n^2/2 comparisons each) took seconds
    n = 3000
    longest = {"index": list(range(n, 0, -1))}
    payload = problem({"type": "complex_flag", "dims": [1] * n}, [longest] * 20)
    start = time.perf_counter()
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert time.perf_counter() - start < 2.0
    assert code == 3
    assert out == ""
    assert "fill degree %d" % (20 * n * (n - 1) // 2) in err


def test_library_solve_all_families():
    batch = [
        problem(GR48, [{"index": [2, 2], "count": 4}]),
        problem(GR4R8, [{"index": [2, 2], "count": 4}]),
        problem(GR2H4, [{"index": [1], "count": 4}]),
        problem(OCT, [{"index": [2, 1, 3], "count": 2}, {"index": [1, 3, 2], "count": 1}]),
        problem(GR4R8, [{"corank": 2, "count": 4}]),
        problem(FL3, [{"index": [2, 1, 3], "count": 2}, {"index": [1, 3, 2], "count": 1}]),
    ]
    values = [schubcalc.solve(parse_problem(obj))[0] for obj in batch]
    assert values == [6, 2, 2, 1, 32, 1]


def test_solve_batch_error_names_position(capsys, tmp_path):
    batch = [
        problem(GR24, [{"index": [1], "count": 4}]),
        problem(GR24, [{"index": [1], "count": 3}]),
    ]
    code, _, err = solve_json(capsys, tmp_path, batch)
    assert code == 3
    assert "problem 2" in err


def test_lr_command(capsys):
    code, out, _ = run_cli(capsys, ["lr", "[2,1]", "[2,1]", "[3,2,1]"])
    assert code == 0
    assert json.loads(out)["result"] == 2


def test_lr_command_long_rows(capsys):
    for lam, mu, nu in [
        # one row of 1000 boxes times another: the skew shape has 1000 boxes
        ([1000], [1000], [2000]),
        # long columns: the letters must come from the conjugates
        ([1] * 1500, [1] * 1500, [2] * 1500),
        # a row times a column: the letters must come from the row
        ([1000], [1] * 1000, [1001] + [1] * 999),
    ]:
        args = [json.dumps(p) for p in (lam, mu, nu)]
        code, out, err = run_cli(capsys, ["lr", *args])
        assert code == 0, err
        assert json.loads(out)["result"] == 1
    # a row of 10^9 boxes over short columns: conjugating would build
    # partitions of 10^9 parts
    proc = run_capped(["lr", "[1000000000, 1]", "[1, 1]", "[1000000000, 1, 1, 1]"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == 1


def run_capped(argv):
    """`main(argv)` in a child process whose address space is capped at
    1 GiB, so that an allocation in proportion to a number in the input
    fails there instead of filling the host."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from schubcalc.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )


def test_mult_on_a_huge_grassmannian():
    # the caps of the LR product come from the factors, not from the
    # 10^9 x 10^9 box
    space = {"type": "complex_grassmannian", "k": 10**9, "n": 2 * 10**9}
    proc = run_capped(
        ["mult", "--space", json.dumps(space), "[1]", "[1]", "--format", "text"]
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: s[1, 1] + s[2]" in proc.stdout.splitlines()


def test_giambelli_on_a_huge_grassmannian():
    # only the row lengths in the determinant's band are built, not all
    # l + 1 = 10^9 + 1 row classes
    space = {"type": "complex_grassmannian", "k": 10**9, "n": 2 * 10**9}
    proc = run_capped(["giambelli", "--space", json.dumps(space), "[1]", "--format", "text"])
    assert proc.returncode == 0, proc.stderr
    assert "result: s[1]" in proc.stdout.splitlines()


def test_integers_past_the_str_digit_limit_in_messages(tmp_path):
    # str() of an int refuses more than 4300 digits on 3.11+; every message
    # that names a space, a degree or a dimension writes it with
    # decimal_text, so these end in a named diagnostic, not a traceback
    t = 10 ** 3000
    huge = [9 * 10 ** 4299] * 10  # each block fits, n does not
    solves = [
        ({"type": "complex_grassmannian", "k": t, "n": 2 * t}, {"index": [1]}, 3),
        ({"type": "quaternionic_grassmannian", "k": t, "n": 2 * t}, {"index": [1]}, 3),
        ({"type": "real_even_grassmannian", "k": 2 * t, "n": 4 * t}, {"index": [2, 2]}, 3),
        ({"type": "complex_grassmannian", "k": 1, "n": 10 ** 2001},
         {"index": [10 ** 2000], "count": 10 ** 2500}, 3),
        ({"type": "real_even_grassmannian", "k": 2 * t, "n": 4 * t},
         {"corank": 2, "count": 3}, 3),
        ({"type": "complex_flag", "dims": huge}, {"index": [1]}, 3),
        ({"type": "quaternionic_flag", "dims": huge}, {"index": [[1], [2]]}, 2),
    ]
    runs = [
        (["solve", "--input", write_problem(tmp_path, problem(space, [condition]), f"{i}.json")],
         code)
        for i, (space, condition, code) in enumerate(solves)
    ]
    e = str(10 ** 4000)
    runs.append((["porteous", "--space", json.dumps(GR24), e, e, "0", "1"], 3))
    for argv, expected in runs:
        proc = run_capped(argv)
        assert proc.returncode == expected, proc.stderr[-300:]
        assert proc.stderr.startswith("error: ")
        assert "Exceeds the limit" not in proc.stderr


def test_importing_the_cli_loads_no_dataclasses():
    script = (
        "import sys\n"
        "import schubcalc.cli\n"
        "loaded = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_huge_flag_key_is_checked_before_padding(tmp_path):
    # (2, 1) is no minimal representative for one block of 10^8: the key
    # must be refused before it is padded to 10^8 letters
    space = {"type": "complex_flag", "dims": [10**8]}
    path = write_problem(tmp_path, problem(space, [{"index": [2, 1], "count": 1}]))
    proc = run_capped(["solve", "--input", path])
    assert proc.returncode == 2, proc.stderr
    assert "not a minimal coset representative" in proc.stderr


def test_one_block_flag_of_huge_dimension_is_a_point(tmp_path):
    # Fl(C^(10^8)) with one block is a point, and [1] its unit: stored keys
    # have no trailing fixed points, so nothing is padded to 10^8 letters
    space = {"type": "complex_flag", "dims": [10**8]}
    path = write_problem(tmp_path, problem(space, [{"index": [1], "count": 1}]))
    proc = run_capped(["solve", "--input", path])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == 1


@pytest.mark.parametrize(
    "space,index,message",
    [
        # a permutation on a real even or quaternionic flag names its coset
        # by all n letters
        (
            {"type": "real_even_flag", "dims": [2, 2]},
            [2, 1],
            "invalid index [2, 1]: block sizes (2, 2) do not sum to 2",
        ),
        (
            {"type": "quaternionic_flag", "dims": [1, 1, 1]},
            [2, 1],
            "invalid index [2, 1]: block sizes (1, 1, 1) do not sum to 2",
        ),
        (
            FL3,
            [2, 1, 3, 4],
            "invalid index [2, 1, 3, 4]: cannot pad (2, 1, 3, 4) down to length 3",
        ),
    ],
)
def test_flag_permutations_of_the_wrong_length(capsys, tmp_path, space, index, message):
    payload = problem(space, [{"index": index, "count": 1}])
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert (code, out) == (2, ""), err
    assert f"error: condition 1: {message}" in err.splitlines()


def test_long_dimension_vector_is_written_in_runs(tmp_path):
    n = 3000
    longest = {"index": list(range(n, 0, -1))}
    payload = problem({"type": "complex_flag", "dims": [1] * n}, [longest] * 20)
    proc = run_capped(["solve", "--input", write_problem(tmp_path, payload)])
    assert proc.returncode == 3, proc.stderr
    line = proc.stderr.splitlines()[0]
    assert len(line.encode()) < 200, line[:200]
    assert "Fl(1^3000)(C^3000)" in line


def test_solve_long_rows(capsys, tmp_path):
    space = {"type": "complex_grassmannian", "k": 1, "n": 2001}
    payload = problem(space, [{"index": [1000], "count": 2}])
    code, out, err = solve_json(capsys, tmp_path, payload)
    assert code == 0, err
    assert json.loads(out)["result"] == 1


def test_lr_coefficient_staircase_squared():
    stair = (6, 5, 4, 3, 2, 1)
    nu = (9, 8, 7, 5, 4, 3, 3, 2, 1)
    assert schubcalc.schur.lr_coefficient(stair, stair, nu) == 2064


def test_main_called_repeatedly_keeps_no_state(capsys, tmp_path):
    path = write_problem(tmp_path, problem(GR24, [{"index": [1], "count": 4}]))
    code, out, _ = run_cli(capsys, ["solve", "--input", path, "--mode", "class"])
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [{"partition": [2, 2], "coeff": "2"}]
    code, out, _ = run_cli(capsys, ["solve", "--input", path])
    assert code == 0
    assert json.loads(out)["result"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", path, "--mode", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["solve", "--input", path, "--format", "text"])
    assert code == 0
    assert out.startswith("result: 2\n")


def test_mult_command(capsys):
    code, out, _ = run_cli(
        capsys, ["mult", "--space", json.dumps(GR24), "[1]", "[1]"]
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [
        {"partition": [1, 1], "coeff": "1"},
        {"partition": [2], "coeff": "1"},
    ]


def test_mult_accepts_term_objects(capsys):
    a = {"terms": [{"partition": [1], "coeff": 2}]}
    code, out, _ = run_cli(
        capsys, ["mult", "--space", json.dumps(GR24), json.dumps(a), "[1]"]
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [
        {"partition": [1, 1], "coeff": "2"},
        {"partition": [2], "coeff": "2"},
    ]


def test_coefficients_take_the_output_forms_only(capsys):
    # "1e999999999" once built 10**999999999 before failing
    for coeff, expected in (("3", 0), ("-3", 0), ("6/2", 0), ("1e999999999", 2),
                            ("1e-99999999", 2), ("1.5", 2), ("1_000", 2), ("1/0", 2)):
        a = json.dumps({"terms": [{"partition": [1], "coeff": coeff}]})
        code, _, err = run_cli(capsys, ["mult", "--space", json.dumps(GR24), a, "[1]"])
        assert code == expected, (coeff, err)


def test_mult_real_even_requires_doubled(capsys):
    code, out, _ = run_cli(
        capsys, ["mult", "--space", json.dumps(GR4R8), "[2,2]", "[2,2]"]
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [
        {"partition": [2, 2, 2, 2], "coeff": "1"},
        {"partition": [4, 4], "coeff": "1"},
    ]
    code, _, err = run_cli(
        capsys, ["mult", "--space", json.dumps(GR4R8), "[2,1]", "[2,2]"]
    )
    assert code == 3


def test_giambelli_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["giambelli", "--space", json.dumps({"type": "complex_grassmannian", "k": 3, "n": 6}), "[2,1]"],
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [{"partition": [2, 1], "coeff": "1"}]
    # a 1100 x 1100 determinant must not need 1100 levels of recursion
    column = [1] * 1100
    code, out, err = run_cli(
        capsys,
        ["giambelli", "--space", json.dumps({"type": "complex_grassmannian", "k": 1100, "n": 1101}),
         json.dumps(column)],
    )
    assert code == 0, err
    assert json.loads(out)["result"]["terms"] == [{"partition": column, "coeff": "1"}]


def test_porteous_command(capsys):
    code, out, _ = run_cli(
        capsys, ["porteous", "--space", json.dumps(GR24), "2", "2", "1", "4"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"] == 32
    assert report["locus_class"]["terms"] == [{"partition": [1], "coeff": "2"}]
    # codimension 0 with e = 3000: the locus is the unit, no determinant
    code, out, err = run_cli(
        capsys, ["porteous", "--space", json.dumps(GR24), "3000", "0", "0", "1"]
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["result"] == 0
    assert report["locus_class"]["terms"] == [{"partition": [], "coeff": "1"}]


def test_porteous_evaluates_at_most_one_determinant(monkeypatch, capsys):
    calls = []
    real = schubcalc.grassmann.ring_determinant

    def counted(mat, one):
        calls.append(len(mat))
        return real(mat, one)

    monkeypatch.setattr(schubcalc.grassmann, "ring_determinant", counted)
    for args, expected in ((["2", "2", "1", "4"], [1]), (["3", "1", "1", "7"], []),
                           (["1", "4", "1", "0"], [])):
        calls.clear()
        code, _, err = run_cli(capsys, ["porteous", "--space", json.dumps(GR24), *args])
        assert code == 0, err
        assert calls == expected, args


def test_porteous_rejects_bad_rank(capsys):
    # a negative bundle rank is named before rho is checked against it
    for ranks, message in (
        (["2", "2", "3", "4"], "need 0 <= rho <= min(e, f), got rho=3"),
        (["-3", "2", "0", "1"], "need e >= 0, got e=-3"),
        (["2", "-1", "0", "1"], "need f >= 0, got f=-1"),
    ):
        code, out, err = run_cli(capsys, ["porteous", "--space", json.dumps(GR24), *ranks])
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"error: {message}"


def test_porteous_rejects_negative_maps(capsys):
    code, _, err = run_cli(
        capsys, ["porteous", "--space", json.dumps(GR24), "2", "2", "1", "-1"]
    )
    assert code == 2
    assert "nonnegative number of maps" in err


def test_kappa_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["kappa", "--space", json.dumps({"type": "real_even_grassmannian", "k": 8, "n": 16}), "[4,4,4,4]"],
    )
    assert code == 0
    assert json.loads(out)["result"]["terms"] == [{"partition": [2, 2], "coeff": "16"}]


def test_kappa_not_doubled_exits_three(capsys):
    code, _, err = run_cli(
        capsys, ["kappa", "--space", json.dumps(GR4R8), "[2,1]"]
    )
    assert code == 3
    assert "doubled" in err


def test_kappa_octonionic_lands_on_quaternionic_carrier(capsys):
    for cls in ("[2,1,3]", "[[2],[1],[3]]"):
        code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(OCT), cls])
        assert code == 0, err
        report = json.loads(out)
        assert report["result"]["space"] == {"type": "quaternionic_flag", "dims": [1, 1, 1]}
        assert report["result"]["terms"] == [{"osp": [[2], [1], [3]], "coeff": "1"}]
    code, _, err = run_cli(capsys, ["kappa", "--space", json.dumps(OCT), "[[1,2],[3]]"])
    assert code == 2
    assert "error:" in err


def test_flag_index_forms_by_family(capsys):
    # A complex flag takes only minimal coset representatives; the real even
    # and quaternionic flags read a whole permutation as its coset, which
    # comes back as an OSP; only the octonionic flag pads a short one.
    fl21 = {"type": "complex_flag", "dims": [2, 1]}
    code, out, err = run_cli(capsys, ["mult", "--space", json.dumps(fl21), "[2,1,3]", "[1,2,3]"])
    assert (code, out) == (2, "")
    assert "minimal coset representative" in err
    for sp in ({"type": "quaternionic_flag", "dims": [2, 2]}, {"type": "real_even_flag", "dims": [2, 2]}):
        code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(sp), "[2,1,3,4]"])
        assert code == 0, err
        assert json.loads(out)["input"]["class"]["terms"] == [{"osp": [[1, 2], [3, 4]], "coeff": "1"}]
        code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(sp), "[2,1]"])
        assert (code, out) == (2, ""), sp
        assert "error:" in err
    code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(OCT), "[2,1]", "--format", "text"])
    assert code == 0, err
    assert out.startswith("result: S[[2], [1], [3]]\n")

    fl222r6 = json.dumps({"type": "real_even_flag", "dims": [2, 2, 2]})
    expected = [
        {"osp": [[3, 4], [5, 6], [1, 2]], "coeff": "1"},
        {"osp": [[5, 6], [1, 2], [3, 4]], "coeff": "1"},
    ]
    for a, b in (
        ("[[3,4],[1,2],[5,6]]", "[[1,2],[5,6],[3,4]]"),
        ("[3,4,1,2,5,6]", "[1,2,5,6,3,4]"),
        ("[4,3,2,1,6,5]", '{"terms": [{"osp": [[1,2],[5,6],[3,4]]}]}'),
    ):
        code, out, err = run_cli(capsys, ["mult", "--space", fl222r6, a, b])
        assert code == 0, err
        assert json.loads(out)["result"]["terms"] == expected, (a, b)


def test_kappa_non_integral_image_exits_two(capsys):
    cls = json.dumps({"terms": [{"partition": [2, 2], "coeff": "1/4"}]})
    space = json.dumps({"type": "real_even_grassmannian", "k": 2, "n": 4})
    code, out, err = run_cli(capsys, ["kappa", "--space", space, cls])
    assert code == 2
    assert out == ""
    assert "error:" in err and "not an integer" in err


def test_kappa_non_integral_image_past_the_str_digit_limit_is_named(capsys):
    # the error message writes the coefficient with decimal_text, as output does
    cls = json.dumps({"terms": [{"partition": [4, 4, 4, 4], "coeff": "9" * 4299 + "/7"}]})
    code, out, err = run_cli(capsys, ["kappa", "--space", json.dumps(GR4R8), cls])
    assert code == 2
    assert out == ""
    # 2^|(2, 2)| (10^4299 - 1) / 7
    assert f"coefficient 15{'9' * 4297}84/7 of (2, 2) is not an integer" in err


def test_selftest_quick_passes(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--level", "quick"])
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_selftest_detects_mutation(monkeypatch, capsys):
    real = schubcalc.schur.lr_coefficient

    def flipped(lam, mu, nu):
        return -real(lam, mu, nu)

    monkeypatch.setattr(schubcalc.schur, "lr_coefficient", flipped)
    code = run_selftest("full")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_importing_the_cli_leaves_the_selftest_unloaded(tmp_path):
    # the self-test suites and the oracles load only for `schubcalc selftest`,
    # not for a solve on any family, yet the package still serves their names
    paths = [
        write_problem(tmp_path, problem(GR24, [{"index": [1], "count": 4}]), "count.json"),
        write_problem(
            tmp_path,
            problem(FL3, [{"index": [2, 1, 3], "count": 2}], mode="class"),
            "class.json",
        ),
        write_problem(tmp_path, problem(GR4R8, [{"index": [2, 2], "count": 4}]), "real.json"),
    ]
    oracles = [
        "divided_difference",
        "expand_in_schubert_basis",
        "jacobi_trudi",
        "monk_multiply",
        "oracle_schur_polynomial",
        "run_selftest",
        "schubert_polynomial",
    ]
    script = (
        "import io, sys, contextlib\n"
        "from schubcalc.cli import main\n"
        "for path in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['solve', '--input', path]) == 0, path\n"
        "for name in ('schubcalc.selftest', 'schubcalc.poly'):\n"
        "    assert name not in sys.modules, sorted(sys.modules)\n"
        "import schubcalc\n"
        "lazy = sorted(n for n in schubcalc.__all__ if n not in vars(schubcalc))\n"
        f"assert lazy == {oracles!r}, lazy\n"
        "import schubcalc.selftest as selftest\n"
        "for name in lazy:\n"
        "    assert getattr(schubcalc, name) is getattr(selftest, name), name\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *paths], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    star = "from schubcalc import *\nassert monk_multiply and schubert_polynomial\n"
    proc = subprocess.run([sys.executable, "-c", star], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    payload = problem(GR24, [{"index": [1], "count": 4}])
    path = write_problem(tmp_path, payload)
    proc = subprocess.run(
        [sys.executable, "-m", "schubcalc", "solve", "--input", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == 2
    assert "elapsed_ms" in proc.stderr


def prepend_path(env, key, entry):
    env[key] = os.pathsep.join(filter(None, [entry, env.get(key)]))


def install_console_script(bin_dir, name):
    """Write into ``bin_dir`` the launcher an installer generates for the
    ``[project.scripts]`` entry ``name`` of this checkout's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert name in scripts, f"[project.scripts] declares no {name!r}"
    entry = EntryPoint(name, scripts[name], "console_scripts")
    assert callable(entry.load()), entry.value

    bin_dir.mkdir()
    launcher = bin_dir / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    launcher.chmod(0o755)


def test_console_script(tmp_path):
    install_console_script(tmp_path / "bin", "schubcalc")
    env = dict(os.environ)
    prepend_path(env, "PATH", str(tmp_path / "bin"))
    prepend_path(env, "PYTHONPATH", str(Path(schubcalc.__file__).resolve().parents[1]))
    payload = problem(GR24, [{"index": [1], "count": 4}], mode="count")
    path = write_problem(tmp_path, payload)
    proc = subprocess.run(
        ["schubcalc", "solve", "--input", path, "--format", "text"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "result: 2" in proc.stdout
