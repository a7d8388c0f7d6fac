"""One in-process session: schubcalc.cli.main once per problem file.

Run as its own process, so every session starts with empty caches and each
problem, taken in the fixed order of the manifest, sees the same cache state
in every session. With "trace" set, the per-layer wrappers from layers.py are
installed first. The probe file, if any, runs after the timed problems and
after the per-layer numbers are taken, so it is in no timing.

    python3 perfbench/session.py MANIFEST.json RESULT.json
"""

import contextlib
import io
import json
import sys
from time import perf_counter


def _call(main, path):
    """Run `schubcalc solve --input path`; returns (stdout, failure or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["solve", "--input", path])
    except Exception as exc:  # the session must go on; the failure is reported
        return out.getvalue(), type(exc).__name__
    return out.getvalue(), None if code == 0 else f"exit {code}"


def run(manifest):
    import schubcalc.cli as cli

    tracer = None
    if manifest["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    times, outputs, failures = [], [], []
    for path in manifest["files"]:
        start = perf_counter()
        stdout, failure = _call(cli.main, path)
        times.append(perf_counter() - start)
        outputs.append(stdout)
        failures.append(failure)
    result = {"times": times, "outputs": outputs, "failures": failures}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    if manifest.get("probe"):
        stdout, failure = _call(cli.main, manifest["probe"])
        result["probe"] = {"output": stdout, "failure": failure}
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = run(manifest)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
