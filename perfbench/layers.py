"""Per-layer spans and counters, installed from outside the program.

Each target is a public function or method of one schubcalc module. The
tracer replaces every binding of that object in the loaded schubcalc
modules (including names imported into other modules, and method aliases
such as __rmul__ = __mul__) with a wrapper that records a span or counts a
call. A span's self time is its duration minus the spans that ran inside
it. Re-entering a span's own group (SparsePolynomial.__sub__ calling
__add__) is not counted twice. A target the program no longer has is
recorded as absent and its metrics read 0.
"""

import sys
from time import perf_counter


def _terms(x):
    return len(getattr(x, "terms", None) or ())


class Group:
    __slots__ = ("calls", "seconds", "self_seconds", "extra")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.extra = {}


def _lr_result(group, args, kwargs, result):
    if result:
        group.extra["nonzero"] = group.extra.get("nonzero", 0) + 1


def _distinct_args(group, args, kwargs, result):
    key = tuple(tuple(a) if isinstance(a, list) else a for a in args)
    group.extra.setdefault("distinct", set()).add((key, tuple(sorted(kwargs.items()))))


def _gr_result(group, args, kwargs, result):
    group.extra["max_terms"] = max(group.extra.get("max_terms", 0), _terms(result))


def _expand_result(group, args, kwargs, result):
    poly, n = args[0], args[1]
    extra = group.extra
    extra["max_n"] = max(extra.get("max_n", 0), n)
    extra["max_input_terms"] = max(extra.get("max_input_terms", 0), _terms(poly))
    extra["output_terms"] = extra.get("output_terms", 0) + len(result)


def _mul_result(group, args, kwargs, result):
    a, b = args[0], args[1]
    if hasattr(b, "terms"):
        group.extra["term_pairs"] = group.extra.get("term_pairs", 0) + _terms(a) * _terms(b)


# (group, module, attribute path, kind, hook). "span" times and counts the
# call; "count" only counts it, and its time stays with the caller's span.
TARGETS = [
    ("cli", "schubcalc.cli", "main", "span", None),
    ("serialize.parse_problem", "schubcalc.serialize", "parse_problem", "span", None),
    ("serialize.class_to_json", "schubcalc.serialize", "class_to_json", "span", None),
    ("halving", "schubcalc.halving", "real_lower_bound", "span", None),
    ("halving", "schubcalc.halving", "quaternionic_count", "span", None),
    ("halving", "schubcalc.halving", "real_degeneracy_lower_bound", "span", None),
    ("halving", "schubcalc.halving", "kappa", "span", None),
    ("grassmann.gr_multiply", "schubcalc.grassmann", "gr_multiply", "span", _gr_result),
    ("grassmann.degeneracy_count", "schubcalc.grassmann", "degeneracy_count", "span", None),
    ("schur.lr_coefficient", "schubcalc.schur", "lr_coefficient", "span", _lr_result),
    ("schur.expand_basis_product", "schubcalc.schur", "expand_basis_product", "span",
     _distinct_args),
    ("flag.flag_multiply", "schubcalc.flag", "flag_multiply", "span", None),
    ("flag.schubert_polynomial", "schubcalc.flag", "schubert_polynomial", "span",
     _distinct_args),
    ("flag.expand_in_schubert_basis", "schubcalc.flag", "expand_in_schubert_basis", "span",
     _expand_result),
    ("poly.mul", "schubcalc.poly", "SparsePolynomial.__mul__", "span", _mul_result),
    ("poly.addsub", "schubcalc.poly", "SparsePolynomial.__add__", "span", None),
    ("poly.addsub", "schubcalc.poly", "SparsePolynomial.__sub__", "span", None),
    ("indexing.normalize_partition", "schubcalc.indexing", "normalize_partition", "count",
     None),
    ("indexing.normalize_perm", "schubcalc.indexing", "normalize_perm", "count", None),
]


class Tracer:
    def __init__(self):
        self.groups = {}
        self.absent = []
        self.originals = {}
        self._stack = []

    def _span(self, name, fn, hook):
        group = self.groups[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                group.calls += 1
                group.seconds += elapsed
                group.self_seconds += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(group, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        group = self.groups[name]

        def wrapper(*args, **kwargs):
            group.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target; call after importing schubcalc.cli."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "schubcalc" or n.startswith("schubcalc."))]
        for name, module_name, path, kind, hook in TARGETS:
            self.groups.setdefault(name, Group())
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self.originals[f"{module_name}.{path}"] = original
            if kind == "span":
                wrapper = self._span(name, original, hook)
            else:
                wrapper = self._count(name, original)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def metrics(self):
        """Per-layer metrics by name; counts are ints, times seconds."""
        g = self.groups

        def extra(name, key):
            value = g[name].extra.get(key, 0)
            return len(value) if isinstance(value, set) else value

        ebp = self.originals.get("schubcalc.schur.expand_basis_product")
        info = getattr(ebp, "cache_info", None)
        return {
            "cli.main_s": g["cli"].seconds,
            "cli.self_s": g["cli"].self_seconds,
            "serialize.parse_problem_s": g["serialize.parse_problem"].seconds,
            "serialize.parse_problem_calls": g["serialize.parse_problem"].calls,
            "serialize.class_to_json_s": g["serialize.class_to_json"].seconds,
            "halving.self_s": g["halving"].self_seconds,
            "halving.calls": g["halving"].calls,
            "grassmann.gr_multiply_calls": g["grassmann.gr_multiply"].calls,
            "grassmann.gr_multiply_s": g["grassmann.gr_multiply"].seconds,
            "grassmann.gr_multiply_self_s": g["grassmann.gr_multiply"].self_seconds,
            "grassmann.max_class_terms": extra("grassmann.gr_multiply", "max_terms"),
            "grassmann.degeneracy_count_s": g["grassmann.degeneracy_count"].seconds,
            "schur.lr_coefficient_calls": g["schur.lr_coefficient"].calls,
            "schur.lr_coefficient_nonzero": extra("schur.lr_coefficient", "nonzero"),
            "schur.lr_coefficient_s": g["schur.lr_coefficient"].seconds,
            "schur.expand_basis_product_calls": g["schur.expand_basis_product"].calls,
            "schur.expand_basis_product_distinct": extra("schur.expand_basis_product",
                                                         "distinct"),
            "schur.expand_basis_product_misses": info().misses if info else 0,
            "schur.expand_basis_product_s": g["schur.expand_basis_product"].seconds,
            "flag.flag_multiply_calls": g["flag.flag_multiply"].calls,
            "flag.flag_multiply_s": g["flag.flag_multiply"].seconds,
            "flag.flag_multiply_self_s": g["flag.flag_multiply"].self_seconds,
            "flag.schubert_polynomial_calls": g["flag.schubert_polynomial"].calls,
            "flag.schubert_polynomial_distinct": extra("flag.schubert_polynomial", "distinct"),
            "flag.schubert_polynomial_s": g["flag.schubert_polynomial"].seconds,
            "flag.expand_in_schubert_basis_calls": g["flag.expand_in_schubert_basis"].calls,
            "flag.expand_in_schubert_basis_s": g["flag.expand_in_schubert_basis"].seconds,
            "flag.expand_max_n": extra("flag.expand_in_schubert_basis", "max_n"),
            "flag.expand_max_input_terms": extra("flag.expand_in_schubert_basis",
                                                 "max_input_terms"),
            "flag.expand_output_terms": extra("flag.expand_in_schubert_basis",
                                              "output_terms"),
            "poly.mul_calls": g["poly.mul"].calls,
            "poly.mul_term_pairs": extra("poly.mul", "term_pairs"),
            "poly.mul_s": g["poly.mul"].seconds,
            "poly.addsub_calls": g["poly.addsub"].calls,
            "poly.addsub_s": g["poly.addsub"].seconds,
            "indexing.normalize_partition_calls": g["indexing.normalize_partition"].calls,
            "indexing.normalize_perm_calls": g["indexing.normalize_perm"].calls,
        }
