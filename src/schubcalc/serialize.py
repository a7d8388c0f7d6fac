"""JSON forms for spaces, classes, indices, and problem files.

JSON becomes keys here and nowhere else: `index_from_json` reads an index
once and returns the key classes on the space store, so ordered set
partitions are read and written only in this module. Index errors become
`ProblemSchemaError`, which `parse_problem` prefixes with the condition.

A space is read through the protocol of `halving`: its `kind` picks the
modes and the JSON family, its `index_space` the shape and the term key,
and its `classes` the class type that keys an index.

Output is deterministic: term lists are sorted by (degree, index) and all
term coefficients are decimal strings, so arbitrarily large integers and
rational halving coefficients travel without width ambiguity. They are
written by `decimal_text`, which has no digit limit. Input
coefficients take exactly those forms, a JSON integer or a string `-?N` or
`-?N/D`. Top-level integer results stay JSON numbers while they fit in 63
bits and become decimal strings beyond that.
"""

import re
from fractions import Fraction

from .combination import Record, decimal_text
from .errors import BoxOverflow, ReportTooLarge
from .flag import FlagDescriptor
from .grassmann import GrassmannianDescriptor
from .halving import (
    COMPLEX,
    OCTONIONIC,
    QUATERNIONIC,
    REAL_EVEN,
    HalvingSpaceDescriptor,
    _corank_rank,
)
from .indexing import (
    normalize_osp,
    normalize_partition,
    osp_block_sizes,
    osp_from_perm,
    perm_from_osp,
    perm_pad,
)

INT63 = 2 ** 63
# A flag class is written with all n letters in every term; past this n a
# class report is refused before any key is padded.
MAX_CLASS_LETTERS = 10 ** 5
TERM_KEYS = ("partition", "permutation", "osp", "index")
_COEFFICIENT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class ProblemSchemaError(Exception):
    """The input does not match the problem-file schema."""


def result_to_json(x):
    if isinstance(x, int) and not -INT63 < x < INT63:
        return decimal_text(x)
    return x


def space_to_json(space):
    """A space's JSON type is its kind's family (the kind without `_flag`)
    and its shape, that of its index space, which a real even space doubles."""
    if space.kind == OCTONIONIC:
        return {"type": "octonionic_flag"}
    family, ix = space.kind.removesuffix("_flag"), space.index_space
    if isinstance(ix, GrassmannianDescriptor):
        return {"type": f"{family}_grassmannian", "k": ix.k, "n": ix.n}
    return {"type": f"{family}_flag", "dims": list(ix.dims)}


def _int_field(obj, key, minimum=1):
    if key not in obj:
        raise ProblemSchemaError(f"space object is missing {key!r}")
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ProblemSchemaError(f"{key!r} must be an integer")
    if v < minimum:
        raise ProblemSchemaError(f"{key!r} must be at least {minimum}")
    return v


def _dims_field(obj):
    if "dims" not in obj:
        raise ProblemSchemaError("space object is missing 'dims'")
    dims = obj["dims"]
    if not (
        isinstance(dims, list)
        and dims
        and all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise ProblemSchemaError("'dims' must be a nonempty list of positive integers")
    return tuple(dims)


def space_from_json(obj):
    if not isinstance(obj, dict):
        raise ProblemSchemaError("space must be a JSON object")
    kind = obj.get("type")
    try:
        if kind == "complex_grassmannian":
            return GrassmannianDescriptor(_int_field(obj, "k"), _int_field(obj, "n"))
        if kind == "complex_flag":
            return FlagDescriptor(_dims_field(obj))
        if kind == "real_even_grassmannian":
            return HalvingSpaceDescriptor.real_even_grassmannian(
                _int_field(obj, "k"), _int_field(obj, "n")
            )
        if kind == "real_even_flag":
            return HalvingSpaceDescriptor.real_even_flag(_dims_field(obj))
        if kind == "quaternionic_grassmannian":
            return HalvingSpaceDescriptor.quaternionic_grassmannian(
                _int_field(obj, "k"), _int_field(obj, "n")
            )
        if kind == "quaternionic_flag":
            return HalvingSpaceDescriptor.quaternionic_flag(_dims_field(obj))
        if kind == "octonionic_flag":
            return HalvingSpaceDescriptor.octonionic_flag()
    except ValueError as exc:
        raise ProblemSchemaError(f"invalid space: {exc}") from None
    raise ProblemSchemaError(f"unknown space type {kind!r}")


def _int_list(raw, what):
    if not (
        isinstance(raw, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
    ):
        raise ProblemSchemaError(f"{what} must be a list of integers")
    return tuple(raw)


def partition_from_json(raw):
    """A partition read from JSON, on no particular space."""
    try:
        return normalize_partition(_int_list(raw, "a partition index"))
    except ValueError as exc:
        raise ProblemSchemaError(f"invalid index {raw!r}: {exc}") from None


def index_from_json(space, raw):
    """The key that classes on `space` store for a JSON index.

    A Grassmannian index is a partition; a flag index is a permutation or an
    OSP whose blocks are those of the space (of its index space, for a
    halving space), which becomes the minimal permutation of its blocks. A
    permutation on a real even or quaternionic flag names its coset by all n
    letters. Either then goes through the `_key` of `space.classes`.
    """
    ix = space.index_space
    try:
        if isinstance(ix, GrassmannianDescriptor):
            index = _int_list(raw, "a partition index")
        elif isinstance(raw, list) and raw and all(isinstance(b, list) for b in raw):
            osp = normalize_osp(tuple(_int_list(b, "an OSP block") for b in raw))
            if osp_block_sizes(osp) != ix.dims:
                raise ValueError(f"OSP blocks {osp_block_sizes(osp)} do not match {space}")
            index = perm_from_osp(osp)
        else:
            index = _int_list(raw, "a permutation index")
            if space.kind in (REAL_EVEN, QUATERNIONIC) and len(index) != ix.n:
                raise ValueError(f"block sizes {ix.dims!r} do not sum to {len(index)}")
        return space.classes._key(space, index)
    except (BoxOverflow, ValueError) as exc:
        raise ProblemSchemaError(f"invalid index {raw!r}: {exc}") from None


def index_to_json(index):
    if index and isinstance(index[0], tuple):
        return [list(b) for b in index]
    return list(index)


def _term_entry(key_name, index, coeff):
    return {key_name: index_to_json(index), "coeff": decimal_text(coeff)}


def _term_key_name(space):
    """Partitions on a Grassmannian and on no space (a Schur expansion); OSPs
    on real even and quaternionic flags; permutations on the others."""
    if space is None or isinstance(space.index_space, GrassmannianDescriptor):
        return "partition"
    return "osp" if space.kind in (REAL_EVEN, QUATERNIONIC) else "permutation"


def class_to_json(a):
    key_name = _term_key_name(a.space)
    pairs = a.sorted_terms()
    if key_name != "partition":
        # stored flag keys have no trailing fixed points; output has n letters
        ix = a.space.index_space
        if ix.n > MAX_CLASS_LETTERS:
            raise ReportTooLarge(
                f"a class on {a.space} would be written with n = {decimal_text(ix.n)} "
                f"letters per term; class reports stop at n = {MAX_CLASS_LETTERS}"
            )
        pairs = [(perm_pad(w, ix.n), c) for w, c in pairs]
    if key_name == "osp":
        pairs = [(osp_from_perm(w, ix.dims), c) for w, c in pairs]
    terms = [_term_entry(key_name, index, c) for index, c in pairs]
    if a.space is None:
        return {"terms": terms}
    return {"space": space_to_json(a.space), "terms": terms}


def _parse_coefficient(raw, rational):
    """A JSON integer, or a string in the form `class_to_json` writes."""
    if isinstance(raw, bool):
        raise ProblemSchemaError(f"bad coefficient {raw!r}")
    if isinstance(raw, int):
        value = Fraction(raw)
    elif isinstance(raw, str) and _COEFFICIENT.fullmatch(raw):
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ProblemSchemaError(f"bad coefficient {raw!r}") from None
    else:
        raise ProblemSchemaError(f"bad coefficient {raw!r}")
    if rational:
        return value
    if value.denominator != 1:
        raise ProblemSchemaError(f"coefficient {raw!r} must be an integer here")
    return value.numerator


def class_from_json(space, raw):
    """Build a class on `space` from a bare index or a {"terms": ...} object."""
    cls = space.classes
    if isinstance(raw, list):
        return cls._make(space, {index_from_json(space, raw): cls._zero + 1})
    if not isinstance(raw, dict) or not isinstance(raw.get("terms"), list):
        raise ProblemSchemaError(
            "a class argument must be an index array or an object with 'terms'"
        )
    if not raw["terms"]:
        raise ProblemSchemaError("a class needs at least one term")
    rational = space.kind != COMPLEX
    terms = {}
    for entry in raw["terms"]:
        if not isinstance(entry, dict):
            raise ProblemSchemaError("every term must be an object")
        keys = [k for k in TERM_KEYS if k in entry]
        if len(keys) != 1:
            raise ProblemSchemaError(
                f"every term needs exactly one index key from {TERM_KEYS}"
            )
        key = index_from_json(space, entry[keys[0]])
        coeff = _parse_coefficient(entry.get("coeff", 1), rational)
        terms[key] = terms.get(key, cls._zero) + coeff
    return cls._make(space, terms)


class ParsedProblem(Record):
    """A validated problem file, ready for dispatch."""

    __slots__ = _fields = ("raw", "space", "mode", "conditions", "degeneracy")

    def __init__(self, raw, space, mode, conditions, degeneracy):
        super().__init__(raw, space, mode, conditions, degeneracy)


# The modes each family allows; the first is its default.
_MODES = {
    COMPLEX: ("count", "class"),
    REAL_EVEN: ("lower_bound",),
    QUATERNIONIC: ("count",),
    OCTONIONIC: ("count",),
}


def parse_problem(obj, mode_override=None):
    if not isinstance(obj, dict):
        raise ProblemSchemaError("a problem must be a JSON object")
    if "space" not in obj:
        raise ProblemSchemaError("a problem needs a 'space'")
    space = space_from_json(obj["space"])
    kind = space.kind

    # --mode replaces the file's mode unread
    mode = mode_override or obj.get("mode", _MODES[kind][0])
    if not isinstance(mode, str):
        raise ProblemSchemaError(f"'mode' must be a string from {_MODES[kind]}")
    if mode not in _MODES[kind]:
        raise ProblemSchemaError(
            f"mode {mode!r} is not available on {space} (choose from {_MODES[kind]})"
        )

    raw_conditions = obj.get("conditions")
    if not (isinstance(raw_conditions, list) and raw_conditions):
        raise ProblemSchemaError("a problem needs a nonempty 'conditions' list")

    conditions = []
    degeneracy = None
    for pos, entry in enumerate(raw_conditions, start=1):
        if not isinstance(entry, dict):
            raise ProblemSchemaError(f"condition {pos} must be an object")
        count = entry.get("count", 1)
        if not (isinstance(count, int) and not isinstance(count, bool) and count >= 1):
            raise ProblemSchemaError(
                f"condition {pos}: 'count' must be a positive integer"
            )
        has_index = "index" in entry
        has_corank = "corank" in entry
        if has_index == has_corank:
            raise ProblemSchemaError(
                f"condition {pos} needs exactly one of 'index' or 'corank'"
            )
        if has_corank:
            if degeneracy is not None:
                raise ProblemSchemaError(
                    f"condition {pos}: only one corank condition is supported"
                )
            corank = entry["corank"]
            try:
                _corank_rank(space, corank)
            except ValueError as exc:
                raise ProblemSchemaError(f"condition {pos}: {exc}") from None
            degeneracy = (corank, count)
        else:
            try:
                index = index_from_json(space, entry["index"])
            except ProblemSchemaError as exc:
                raise ProblemSchemaError(f"condition {pos}: {exc}") from None
            conditions.append((index, count))

    if degeneracy and conditions:
        raise ProblemSchemaError(
            "corank and index conditions cannot be mixed in one problem"
        )

    if not isinstance(obj.get("description", ""), str):
        raise ProblemSchemaError("'description' must be a string")
    return ParsedProblem(
        raw=obj,
        space=space,
        mode=mode,
        conditions=tuple(conditions),
        degeneracy=degeneracy,
    )
