"""Command-line interface.

Results are written to stdout, each report in order once all are
rendered, and are byte-identical across runs; timing goes to stderr. Exit
status 0 means success, 2 a malformed input, and 3 a well-formed problem
that cannot be solved on the requested space. Exit status 141 means the
reader of stdout went away, also under `python -u`; 74 (EX_IOERR) means
stdout cannot take the reports, and stderr says why; either may follow the
reports written before the fault. A closed stderr keeps the exit code.
"""

import argparse
import io
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from . import halving
from .errors import (
    DimensionMismatch,
    NotADoubleIndex,
    SchubertError,
    SpaceMismatch,
)
from .grassmann import (
    GrassmannianDescriptor,
    degeneracy_count_and_locus,
    giambelli,
)
from .halving import COMPLEX, REAL_EVEN, kappa
from .schur import lr_coefficient
from .serialize import (
    TERM_KEYS,
    ProblemSchemaError,
    class_from_json,
    class_to_json,
    index_from_json,
    parse_problem,
    partition_from_json,
    result_to_json,
    space_from_json,
    space_to_json,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_UNSOLVABLE = 3
EXIT_IOERR = 74  # EX_IOERR of sysexits.h: stdout cannot take the report
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `yes | head`
_INF = float("inf")


def _load_json(text, what):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ProblemSchemaError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProblemSchemaError(f"{what} is not valid JSON: nested too deeply") from None


def _report(echo, result, provenance, **extra):
    return {"input": echo, "result": result, **extra, "provenance": provenance}


def _class_text(value):
    if not value["terms"]:
        return "0"
    parts = []
    for term in value["terms"]:
        key = next(k for k in TERM_KEYS if k in term)
        symbol = "s" if key == "partition" else "S"
        coeff = term["coeff"]
        prefix = "" if coeff == "1" else f"{coeff}*"
        parts.append(f"{prefix}{symbol}{term[key]}")
    return " + ".join(parts)


def _report_text(report):
    result = report["result"]
    text = f"result: {_class_text(result) if isinstance(result, dict) else result}\n"
    if "locus_class" in report:
        text += f"locus class: {_class_text(report['locus_class'])}\n"
    return text + f"provenance: {report['provenance']}\n"


def _render(payload, fmt):
    """The stdout of a report, or of a batch (a nonempty list of reports),
    as one text per report, to be written in order."""
    batch = isinstance(payload, list)
    reports = payload if batch else [payload]
    if fmt == "text":
        return ["\n" * (i > 1) + f"problem {i}:\n" * batch + _report_text(r)
                for i, r in enumerate(reports, start=1)]
    nl = "\n  " if batch else "\n"  # a batch's reports sit one level in
    # the writer may run out of depth where json.loads did not (3.12+ has a C guard)
    try:
        pieces = [_json_text(r, ("," if i else "[") + nl if batch else "", nl)
                  for i, r in enumerate(reports)]
    except RecursionError:
        raise ProblemSchemaError("the report is nested too deeply to write") from None
    pieces[-1] += "\n]\n" if batch else "\n"
    return pieces


def _json_text(value, head="", nl="\n"):
    """head and the text of json.dumps(value, indent=2), its later lines
    started by nl, for the dicts (with string keys), lists, tuples, strings,
    numbers, booleans and None of a report. json's indenting encoder is
    pure Python and nests generators; this one needs a frame per level."""
    out = []
    _put(value, head, nl, out)
    return "".join(out)


def _put(x, head, nl, out):
    """Append head and the text of x to out; nl starts x's own lines."""
    if isinstance(x, str):
        out.append(head + _quote(x))
    elif isinstance(x, dict):
        if not x:
            out.append(head + "{}")
            return
        out.append(head + "{")
        inner = nl + "  "
        sep = inner
        for k, v in x.items():
            _put(v, sep + _quote(k) + ": ", inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append(head + "[]")
            return
        out.append(head + "[")
        inner = nl + "  "
        sep = inner
        for v in x:
            _put(v, sep, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif x is None or x is True or x is False:
        out.append(head + ("null" if x is None else "true" if x else "false"))
    elif isinstance(x, int):
        out.append(head + int.__repr__(x))
    elif isinstance(x, float):
        text = (
            "NaN" if x != x
            else "Infinity" if x == _INF
            else "-Infinity" if x == -_INF
            else float.__repr__(x)
        )
        out.append(head + text)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def cmd_solve(args):
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemSchemaError(f"cannot read {args.input}: {exc}") from None
    payload = _load_json(text, "the problem file")
    batch = isinstance(payload, list)
    entries = payload if batch else [payload]
    if not entries:
        raise ProblemSchemaError("the problem list is empty")

    parsed = []
    for i, entry in enumerate(entries, start=1):
        try:
            parsed.append(parse_problem(entry, mode_override=args.mode))
        except ProblemSchemaError as exc:
            raise ProblemSchemaError(f"problem {i}: {exc}" if batch else str(exc)) from None

    # --jobs is accepted but problems run one at a time: the kernels are pure
    # Python, so threads gave no speed-up under the interpreter lock.
    reports = []
    for i, p in enumerate(parsed, start=1):
        try:
            value, provenance = halving.solve(p)
            result = result_to_json(value) if isinstance(value, int) else class_to_json(value)
        except (ProblemSchemaError, SchubertError) as exc:
            raise type(exc)(f"problem {i}: {exc}" if batch else str(exc)) from None
        reports.append(_report(p.raw, result, provenance))
    return reports if batch else reports[0]


def cmd_lr(args):
    lam, mu, nu = (
        partition_from_json(_load_json(text, name))
        for name, text in (("lam", args.lam), ("mu", args.mu), ("nu", args.nu))
    )
    value = lr_coefficient(lam, mu, nu)
    return _report(
        {"lr": [list(lam), list(mu), list(nu)]},
        result_to_json(value),
        "counted lattice-word tableaux on the skew shape",
    )


def cmd_mult(args):
    space = space_from_json(_load_json(args.space, "the space"))
    if space.kind not in (COMPLEX, REAL_EVEN):
        raise ProblemSchemaError(
            "products are exposed for complex and real even spaces only"
        )
    a = class_from_json(space, _load_json(args.a, "the first factor"))
    b = class_from_json(space, _load_json(args.b, "the second factor"))
    product = a * b
    return _report(
        {"space": space_to_json(space), "factors": [class_to_json(a), class_to_json(b)]},
        class_to_json(product),
        "expanded the product in the Schubert basis of the ambient space",
    )


def cmd_giambelli(args):
    space = space_from_json(_load_json(args.space, "the space"))
    if not isinstance(space, GrassmannianDescriptor):
        raise ProblemSchemaError("the determinantal expansion needs a complex Grassmannian")
    lam = index_from_json(space, _load_json(args.partition, "the partition"))
    value = giambelli(lam, space)
    return _report(
        {"space": space_to_json(space), "partition": list(lam)},
        class_to_json(value),
        "evaluated the determinant in single-row classes with the "
        "conjugate-row shift pattern",
    )


def cmd_porteous(args):
    space = space_from_json(_load_json(args.space, "the space"))
    if not isinstance(space, GrassmannianDescriptor):
        raise ProblemSchemaError("rank-drop counts need a complex Grassmannian")
    e, f, rho, m = args.e, args.f, args.rho, args.maps
    try:
        value, locus = degeneracy_count_and_locus(space, e, f, rho, m)
    except ValueError as exc:
        raise ProblemSchemaError(str(exc)) from None
    return _report(
        {"space": space_to_json(space), "e": e, "f": f, "rho": rho, "maps": m},
        result_to_json(value),
        "evaluated the determinant in the Chern series of the bundle "
        "difference and integrated the product over all maps",
        locus_class=class_to_json(locus),
    )


def cmd_kappa(args):
    space = space_from_json(_load_json(args.space, "the space"))
    if space.kind == COMPLEX:
        raise ProblemSchemaError("the halving map needs a real, quaternionic, or octonionic space")
    cls = class_from_json(space, _load_json(args.cls, "the class"))
    try:
        image = kappa(cls)
    except ValueError as exc:
        raise ProblemSchemaError(str(exc)) from None
    return _report(
        {"space": space_to_json(space), "class": class_to_json(cls)},
        class_to_json(image),
        "applied the halving map: doubled indices are halved and each term "
        "is weighted by two to its complex degree",
    )


def cmd_selftest(args):
    from .selftest import run_selftest

    out = io.StringIO()
    return run_selftest(args.level, out), [out.getvalue()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schubcalc",
        description="Schubert calculus over the complex, real, quaternionic, "
        "and octonionic flag varieties",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="solve a problem file")
    p.add_argument("--input", required=True, help="problem file path, or - for stdin")
    p.add_argument(
        "--mode",
        choices=("count", "class", "lower_bound"),
        default=None,
        help="override the mode of every problem in the file",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted; problems run one at a time"
    )
    p.set_defaults(fn=cmd_solve)

    p = subs.add_parser("lr", help="one structure constant of the basis product")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(fn=cmd_lr)

    p = subs.add_parser("mult", help="product of two classes on one space")
    p.add_argument("--space", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_mult)

    p = subs.add_parser("giambelli", help="determinantal expansion of a basis class")
    p.add_argument("--space", required=True)
    p.add_argument("partition")
    p.set_defaults(fn=cmd_giambelli)

    p = subs.add_parser("porteous", help="expected rank-drop locus and count")
    p.add_argument("--space", required=True)
    p.add_argument("e", type=int)
    p.add_argument("f", type=int)
    p.add_argument("rho", type=int)
    p.add_argument("maps", type=int)
    p.set_defaults(fn=cmd_porteous)

    p = subs.add_parser("kappa", help="image of a class under the halving map")
    p.add_argument("--space", required=True)
    p.add_argument("cls", metavar="class")
    p.set_defaults(fn=cmd_kappa)

    for p in subs.choices.values():  # every command so far returns reports
        p.add_argument("--format", choices=("json", "text"), default="json", help="output format")

    p = subs.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(fn=cmd_selftest)

    return parser


def _write(stream, pieces):
    """Write every byte of the text pieces to stream, in order, or raise
    OSError. Each piece is encoded and written to the binary layer in a
    loop, since a raw one (stdio under `python -u`) may take part of a write
    and the text layer would drop the rest; a write that takes nothing is an
    error. A stream with no binary layer (a StringIO) takes the pieces whole.
    A stream that fails has its descriptor pointed at devnull, so that the
    flush at exit neither fails again nor turns the exit code into 120."""
    if stream is None:  # its descriptor was closed at start-up
        raise OSError("the stream is closed")
    binary = getattr(stream, "buffer", None)
    if binary is None:
        stream.writelines(pieces)
        stream.flush()
        return
    try:
        stream.flush()
        for piece in pieces:
            data = memoryview(piece.encode(stream.encoding, stream.errors))
            while data:
                taken = binary.write(data)
                if not taken:
                    raise OSError("the stream took no bytes")
                data = data[taken:]
        binary.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


_parser = None


def main(argv=None):
    # parse_args leaves the parser as it found it, so one parser serves
    # every call in a process; building it costs far more than a parse.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    start = time.perf_counter()
    error = ""
    try:
        payload = args.fn(args)
        if isinstance(payload, tuple):  # selftest: its code and its lines
            code, pieces = payload
        else:
            code, pieces = EXIT_OK, _render(payload, args.format)
        try:
            _write(sys.stdout, pieces)
        except BrokenPipeError:  # the reader has gone; nothing more is printed
            return EXIT_PIPE
        except OSError as exc:
            error, code = f"error: cannot write the report: {exc}\n", EXIT_IOERR
    except ProblemSchemaError as exc:
        error, code = f"error: {exc}\n", EXIT_SCHEMA
    except (DimensionMismatch, NotADoubleIndex, SpaceMismatch) as exc:
        error, code = f"error: {exc}\n", EXIT_UNSOLVABLE
    except SchubertError as exc:
        error, code = f"error: {type(exc).__name__}: {exc}\n", EXIT_UNSOLVABLE
    elapsed = (time.perf_counter() - start) * 1000.0
    try:
        _write(sys.stderr, [f"{error}elapsed_ms: {elapsed:.1f}\n"])
    except OSError:  # a dead stderr drops the line; the run keeps its code
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
