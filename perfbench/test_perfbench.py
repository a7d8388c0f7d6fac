"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _report(problem, want):
    """The report a correct program prints for `problem`."""
    kind, value = want
    if kind == "count":
        return {"input": problem, "result": value if abs(value) < 2 ** 63 else str(value)}
    key = "partition" if problem["space"]["type"].endswith("grassmannian") else "permutation"
    terms = [{key: list(i), "coeff": str(c)} for i, c in sorted(value.items())]
    return {"input": problem, "result": {"terms": terms}}


def _off_by_one(report):
    result = report["result"]
    if isinstance(result, dict):
        terms = [dict(t) for t in result["terms"]]
        if terms:
            terms[0]["coeff"] = str(int(terms[0]["coeff"]) + 1)
        else:  # the product is zero: claim one point class instead
            n = sum(report["input"]["space"]["dims"])
            terms = [{"permutation": list(range(n, 0, -1)), "coeff": "1"}]
        return {**report, "result": {"terms": terms}}
    value = int(result) + 1
    return {**report, "result": value if abs(value) < 2 ** 63 else str(value)}


@pytest.mark.parametrize("name", NAMES)
def test_quick_mode_runs_and_checks(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
         "--seconds", "1", "--quick"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    w = workloads.WORKLOADS[name](7)
    # one cycle: a CLI pass and w.sessions sessions, each running the probe once
    probes = 1 + w.sessions if w.probe else 0
    assert result["failed"] == probes
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_quick_trace_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "flag-poly", "--seed", "7",
         "--seconds", "1", "--quick", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["flag.flag_multiply_calls"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_checker_rejects_an_answer_changed_by_one(name):
    w = workloads.WORKLOADS[name](3)
    wants = check.expected_all(w.problems)
    reports = [_report(p, want) for p, want in zip(w.problems, wants)]
    for problem, report, want in zip(w.problems, reports, wants):
        check.check_report(problem, report, want)
    check.check_groups(w.groups, reports)
    for i in range(0, len(w.problems), max(1, len(w.problems) // 25)):
        with pytest.raises(check.CheckError):
            check.check_report(w.problems[i], _off_by_one(reports[i]), wants[i])
    for kind, members in w.groups:
        changed = list(reports)
        changed[members[-1]] = _off_by_one(reports[members[-1]])
        with pytest.raises(check.CheckError):
            check.check_groups([(kind, members)], changed)


def test_probe_answer_is_checked():
    probe = workloads.PROBE_RECURSION
    want = check.expected(probe)
    assert want == ("count", 1)
    with pytest.raises(check.CheckError):
        check.check_report(probe, {"input": probe, "result": 2}, want)


def test_closed_forms_agree_with_the_reference():
    assert oracle.hook_length_count(2, 2) == 2
    assert oracle.hook_length_count(3, 3) == 42
    fixture = {"space": {"type": "real_even_grassmannian", "k": 6, "n": 12},
               "conditions": [{"corank": 2, "count": 9}], "mode": "lower_bound"}
    assert check.closed_form(fixture) == 21504 == check.expected(fixture)[1]
    covered = 0
    for name in NAMES:
        for problem in workloads.WORKLOADS[name](5).problems:
            extra = check.closed_form(problem)
            if extra is not None:
                covered += 1
                assert extra == check.expected(problem)[1], problem
    assert covered >= 10


def test_absent_target_is_reported_not_fatal(monkeypatch):
    import schubcalc.cli  # noqa: F401

    extra = ("cli", "schubcalc.cli", "no_such_function", "span", None)
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + [extra])
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert tracer.absent == ["schubcalc.cli.no_such_function"]
        assert set(tracer.metrics()) >= {"cli.self_s", "poly.mul_calls"}
    finally:
        for module in list(sys.modules):
            if module == "schubcalc" or module.startswith("schubcalc."):
                del sys.modules[module]
