"""The schubcalc benchmark: one command, three workloads.

    python3 perfbench/run.py --workload gr-census --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/. A cycle runs the whole workload as a CLI pass, fresh
`python -m schubcalc solve` processes, one batch file each, started one at
a time (plus the workload's probe, as its own process, outside all
timing), and then as Workload.sessions in-process sessions, each calling
schubcalc.cli.main once per problem (session.py). Steps repeat while the
next one is expected to end within --seconds; times are pooled over the
whole run (README.md). With --trace 1 a step is a round of an untraced and
a traced session instead, and the per-layer numbers come from the traced
one.

Every answer is checked, outside the timed region, against check.py. The
last line of stdout is one JSON object: correct, attempted, failed and
metrics. Use --quick for one cycle on a slice of the workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path
from time import perf_counter

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench" / f"run-{os.getpid()}"  # inputs, outputs, child logs
CHILD_LIMIT_S = 60  # a child still running after this is killed
QUICK_PER_BATCH = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "problems_per_s": "1/s",
    "solve_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, unreadable child output)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


class Spawner:
    """The spawner.py process; every child of the benchmark is started by it."""

    def __init__(self, env):
        script = str(Path(__file__).with_name("spawner.py"))
        self.proc = subprocess.Popen(
            [sys.executable, script], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )

    def run(self, args, tag):
        """Run `python args...` with stdout and stderr in files.

        Returns (spawn-to-exit seconds, exit code, max RSS in MB, stdout text).
        """
        out = WORK / f"{tag}.out"
        request = {"args": [sys.executable, *args], "out": str(out),
                   "err": str(WORK / f"{tag}.err"), "limit_s": CHILD_LIMIT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner process ended")
        reply = json.loads(line)
        return reply["elapsed_s"], reply["code"], reply["maxrss_kb"] / 1024.0, out.read_text()

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=CHILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def batch_stdout(singles):
    """The stdout of one batch run, composed from single-problem stdouts."""
    body = ",\n".join(textwrap.indent(s.rstrip("\n"), "  ") for s in singles)
    return f"[\n{body}\n]\n"


class Run:
    def __init__(self, workload, wants, spawner):
        self.w = workload
        self.wants = wants
        self.spawn = spawner.run
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = [None] * len(workload.problems)  # first stdout seen per problem
        self.files, self.batch_files, self.probe_file = workloads.write_inputs(workload, WORK)
        if self.probe_file is not None:
            self.probe_want = check.expected(workload.probe)

    # -- checking ---------------------------------------------------------

    def _check_outputs(self, outputs, label):
        """outputs: stdout per problem, None where the problem failed.

        The first stdout seen for a problem is checked against its expected
        answer; every later one must repeat it byte for byte.
        """
        fresh = []
        for i, text in enumerate(outputs):
            ref = self.reference[i]
            if text is None:
                continue
            if ref is not None:
                if text != ref:
                    self.errors.append(f"{label}: problem {i + 1} stdout differs between runs")
                continue
            try:
                check.check_report(self.w.problems[i], json.loads(text), self.wants[i])
            except (check.CheckError, json.JSONDecodeError) as exc:
                self.errors.append(f"{label}: problem {i + 1}: {exc}")
            self.reference[i] = text
            fresh.append(i)
        if fresh:
            reports = [json.loads(t) if t is not None else None for t in self.reference]
            complete = [(k, m) for k, m in self.w.groups
                        if all(reports[i] is not None for i in m) and set(m) & set(fresh)]
            try:
                check.check_groups(complete, reports)
            except check.CheckError as exc:
                self.errors.append(f"{label}: {exc}")

    def _check_probe(self, text, failure, label):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            return
        try:
            check.check_report(self.w.probe, json.loads(text), self.probe_want)
        except (check.CheckError, json.JSONDecodeError) as exc:
            self.errors.append(f"{label}: probe: {exc}")

    # -- the two ways of running a workload --------------------------------

    def cli_pass(self, tag):
        wall, rss = 0.0, 0.0
        outputs = [None] * len(self.w.problems)
        for b, (path, members) in enumerate(zip(self.batch_files, self.w.batches)):
            elapsed, code, maxrss, stdout = self.spawn(
                ["-m", "schubcalc", "solve", "--input", path], f"{tag}-batch{b}"
            )
            wall += elapsed
            rss = max(rss, maxrss)
            self.attempted += len(members)
            if code != 0:
                self.failed += len(members)
                continue
            try:
                reports = json.loads(stdout)
            except json.JSONDecodeError:
                self.errors.append(f"{tag}: batch {b + 1} printed no JSON")
                continue
            singles = [json.dumps(r, indent=2) + "\n" for r in reports]
            if len(singles) != len(members):
                self.errors.append(f"{tag}: batch {b + 1} has {len(singles)} reports")
                continue
            if batch_stdout(singles) != stdout:
                self.errors.append(
                    f"{tag}: batch {b + 1} stdout differs from its reports printed one by one"
                )
            for i, text in zip(members, singles):
                outputs[i] = text
        if self.probe_file:
            _, code, _, stdout = self.spawn(
                ["-m", "schubcalc", "solve", "--input", self.probe_file], f"{tag}-probe"
            )
            self._check_probe(stdout, None if code == 0 else f"exit {code}", f"{tag} probe")
        self._check_outputs(outputs, f"{tag} cli")
        return wall, rss

    def session(self, tag, trace):
        manifest = WORK / f"{tag}-manifest.json"
        result_path = WORK / f"{tag}-result.json"
        manifest.write_text(json.dumps(
            {"files": self.files, "trace": trace, "probe": self.probe_file}
        ))
        script = str(Path(__file__).with_name("session.py"))
        _, code, _, _ = self.spawn([script, str(manifest), str(result_path)], tag)
        if code != 0:
            raise BenchError(f"{tag}: the session process exited with {code}; "
                             f"see {WORK / (tag + '.err')}")
        result = json.loads(result_path.read_text())
        failures = result["failures"]
        self.attempted += len(failures)
        self.failed += sum(1 for f in failures if f is not None)
        outputs = [None if f is not None else out
                   for out, f in zip(result["outputs"], failures)]
        if "probe" in result:
            self._check_probe(result["probe"]["output"], result["probe"]["failure"],
                              f"{tag} probe")
        self._check_outputs(outputs, f"{tag} session")
        ok = [t for t, f in zip(result["times"], failures) if f is None]
        if not ok:
            raise BenchError(f"{tag}: no problem was solved; see {WORK / (tag + '.err')}")
        return ok, result


def setup_time(spawn):
    elapsed, code, _, _ = spawn(["-c", "import schubcalc.cli"], "setup")
    if code != 0:
        raise BenchError(f"importing schubcalc.cli failed; see {WORK / 'setup.err'}")
    return elapsed


def measure(run, seconds, trace, quick):
    """Run steps while the next is expected to end within `seconds`.

    With trace off the steps cycle through a CLI pass (after three setup
    samples) and Workload.sessions sessions. Each of these attempts every
    problem once and the probe once, so the failed share is the same after
    any step. With trace on, a step is an untraced and a traced session.
    The first cycle always runs whole.
    """
    cycle = ["traced"] if trace else ["cli"] + ["session"] * run.w.sessions
    rounds, passes, setups, latencies = [], [], [], []
    start = perf_counter()
    longest = {}
    step = 0
    while True:
        kind = cycle[step % len(cycle)]
        began = perf_counter()
        tag = f"s{step}"
        if kind == "traced":
            first_traced = len(rounds) % 2 == 1
            timed = {}
            for traced in (first_traced, not first_traced):
                ok, result = run.session(f"{tag}-{'traced' if traced else 'plain'}", traced)
                timed[traced] = (sum(ok), result)
            rounds.append(timed)
        elif kind == "cli":
            setups += [setup_time(run.spawn) for _ in range(3)]
            wall, rss = run.cli_pass(f"{tag}-cli")
            passes.append({"wall_s": wall, "peak_rss_mb": rss})
        else:
            ok, _ = run.session(f"{tag}-session", False)
            latencies += ok
        longest[kind] = max(longest.get(kind, 0.0), perf_counter() - began)
        step += 1
        if step >= len(cycle):
            following = cycle[step % len(cycle)]
            if quick or perf_counter() - start + longest[following] > seconds:
                break
    if trace:
        return trace_metrics(rounds)
    # Pooled over the run, so that each figure blends the phases of the
    # machine's speed that the run met (README.md, Noise).
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "problems_per_s": len(latencies) / sum(latencies),
        "solve_p50_ms": 1000.0 * statistics.median(latencies),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def trace_metrics(rounds):
    layers = [r[True][1]["layers"] for r in rounds]
    absent = rounds[0][True][1]["absent"]
    if absent:
        print(f"absent from the program, reported as 0: {', '.join(absent)}", file=sys.stderr)
    out = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            out[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            if len(set(values)) != 1:
                raise BenchError(f"per-layer count {name} differs between rounds: {values}")
            out[name] = {"value": values[0], "unit": "count"}
    plain = statistics.median(r[False][0] for r in rounds)
    traced = statistics.median(r[True][0] for r in rounds)
    out["trace.overhead_pct"] = {"value": 100.0 * (traced / plain - 1.0), "unit": "%"}
    return out


def quick_slice(w):
    """The first few problems of every batch, with the groups they complete."""
    keep = [i for members in w.batches for i in members[:QUICK_PER_BATCH]]
    where = {old: new for new, old in enumerate(keep)}
    batches, pos = [], 0
    for members in w.batches:
        size = min(len(members), QUICK_PER_BATCH)
        batches.append(list(range(pos, pos + size)))
        pos += size
    groups = [(k, [where[i] for i in m]) for k, m in w.groups if all(i in where for i in m)]
    return workloads.Workload(w.name, [w.problems[i] for i in keep], batches, groups, w.probe,
                              w.sessions)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one cycle on the first problems of each batch")
    args = parser.parse_args(argv)

    if not (SRC / "schubcalc" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'schubcalc'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.quick:
        workload = quick_slice(workload)
    spawner = Spawner(child_env())
    try:
        wants = check.expected_all(workload.problems)
        setup_time(spawner.run)  # writes bytecode, so setup_s is timed with it present
        run = Run(workload, wants, spawner)
        metrics = measure(run, args.seconds, args.trace == 1, args.quick)
    except (BenchError, check.CheckError) as exc:
        print(f"error: {exc} (files kept in {WORK})", file=sys.stderr)
        return 1
    finally:
        spawner.close()
    shutil.rmtree(WORK)
    for line in run.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
