import json
import pickle
from fractions import Fraction

import pytest

from schubcalc.combination import COMPLEX
from schubcalc.flag import FlagClass, FlagDescriptor
from schubcalc.grassmann import GrassmannClass, GrassmannianDescriptor
from schubcalc.halving import HalvingClass, HalvingSpaceDescriptor
from schubcalc.schur import SchurExpansion
from schubcalc.serialize import (
    ProblemSchemaError,
    class_from_json,
    class_to_json,
    decimal_text,
    index_from_json,
    parse_problem,
    result_to_json,
    space_from_json,
    space_to_json,
)

GR24 = GrassmannianDescriptor(2, 4)
FL3 = FlagDescriptor((1, 1, 1))
GR4R8 = HalvingSpaceDescriptor.real_even_grassmannian(4, 8)
FL222R6 = HalvingSpaceDescriptor.real_even_flag((2, 2, 2))
GR2H4 = HalvingSpaceDescriptor.quaternionic_grassmannian(2, 4)
FLH = HalvingSpaceDescriptor.quaternionic_flag((1, 1, 1))
OCT = HalvingSpaceDescriptor.octonionic_flag()

ALL_SPACES = [GR24, FL3, GR4R8, FL222R6, GR2H4, FLH, OCT]


def test_space_roundtrip():
    for space in ALL_SPACES:
        obj = space_to_json(space)
        assert space_from_json(obj) == space
        assert isinstance(obj["type"], str)


def test_space_json_uses_ambient_dimensions():
    assert space_to_json(GR4R8) == {"type": "real_even_grassmannian", "k": 4, "n": 8}
    assert space_to_json(FL222R6) == {"type": "real_even_flag", "dims": [2, 2, 2]}
    assert space_to_json(OCT) == {"type": "octonionic_flag"}


def test_space_json_text_keeps_its_key_order():
    # reports echo these objects on stdout, so the key order is output too
    texts = [
        '{"type": "complex_grassmannian", "k": 2, "n": 4}',
        '{"type": "complex_flag", "dims": [1, 1, 1]}',
        '{"type": "real_even_grassmannian", "k": 4, "n": 8}',
        '{"type": "real_even_flag", "dims": [2, 2, 2]}',
        '{"type": "quaternionic_grassmannian", "k": 2, "n": 4}',
        '{"type": "quaternionic_flag", "dims": [1, 1, 1]}',
        '{"type": "octonionic_flag"}',
    ]
    assert [json.dumps(space_to_json(space)) for space in ALL_SPACES] == texts


def test_every_space_states_kind_fixed_point_index_space_and_classes():
    doubled = {GR4R8: GrassmannianDescriptor(4, 8), FL222R6: FlagDescriptor((2, 2, 2))}
    for space in ALL_SPACES:
        fp, ix = space.fixed_point, space.index_space
        assert fp.kind == COMPLEX
        assert not hasattr(space, "__dict__")
        if space.kind == COMPLEX:
            assert fp is space and ix is space
        else:
            assert ix == doubled.get(space, fp)
        unit = class_from_json(space, class_to_json(space.classes.unit(space)))
        assert type(unit) is space.classes
        assert unit == space.classes.unit(space)
    for space in (GR4R8, FL222R6, GR2H4, FLH, OCT):
        twin = pickle.loads(pickle.dumps(space))
        assert twin == space and twin.index_space == space.index_space
        assert hash(twin) == hash((space.kind, space.fixed_point))
        assert space._values() == (space.kind, space.fixed_point)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "nowhere"},
        {"type": "complex_grassmannian", "k": 2},
        {"type": "complex_grassmannian", "k": True, "n": 4},
        {"type": "complex_grassmannian", "k": 0, "n": 4},
        {"type": "complex_grassmannian", "k": 4, "n": 4},
        {"type": "real_even_grassmannian", "k": 3, "n": 8},
        {"type": "real_even_flag", "dims": [2, 1, 2]},
        {"type": "complex_flag", "dims": []},
        {"type": "complex_flag", "dims": [1, "2"]},
        "not an object",
    ],
)
def test_space_from_json_rejects(obj):
    with pytest.raises(ProblemSchemaError):
        space_from_json(obj)


def test_index_forms():
    assert index_from_json(GR24, [2, 1]) == (2, 1)
    assert index_from_json(GR24, [1, 1, 0]) == (1, 1)
    # flag keys are stored without trailing fixed points
    assert index_from_json(FL3, [2, 1, 3]) == (2, 1)
    assert index_from_json(FL3, [2, 1]) == (2, 1)
    assert index_from_json(FL3, [1, 2, 3]) == ()
    assert index_from_json(FL222R6, [[2, 4], [1, 3], [5, 6]]) == (2, 4, 1, 3)
    assert index_from_json(FL222R6, [4, 2, 3, 1, 6, 5]) == (2, 4, 1, 3)
    assert index_from_json(OCT, [2, 1]) == (2, 1)
    assert index_from_json(OCT, [[2], [1], [3]]) == (2, 1)
    assert index_from_json(GR4R8, [4, 4]) == (4, 4)


@pytest.mark.parametrize(
    "space,raw",
    [
        (GR24, [1, 2]),
        (GR24, [1.5]),
        (GR24, "nope"),
        (FL3, [1, 1, 2]),
        (FL222R6, [[1, 1], [2]]),
        (GR24, [3]),
        (GR4R8, [5]),
        (FlagDescriptor((2, 1)), [2, 1, 3]),
        (FlagDescriptor((2, 1)), [[1, 2], [3], [4]]),
        (FL222R6, [[1, 2], [3, 4, 5, 6]]),
        (FL222R6, [[1.5, 2], [3, 4], [5, 6]]),
        (OCT, [1, 2, 3, 4]),
    ],
)
def test_index_from_json_rejects(space, raw):
    with pytest.raises(ProblemSchemaError):
        index_from_json(space, raw)


def test_class_json_is_sorted_and_stringly():
    a = GrassmannClass(GR24, {(2, 1): 3, (1,): 1, (1, 1): 2, (2,): 10 ** 25})
    obj = class_to_json(a)
    assert obj["space"] == {"type": "complex_grassmannian", "k": 2, "n": 4}
    assert obj["terms"] == [
        {"partition": [1], "coeff": "1"},
        {"partition": [1, 1], "coeff": "2"},
        {"partition": [2], "coeff": "10000000000000000000000000"},
        {"partition": [2, 1], "coeff": "3"},
    ]


def test_schur_expansion_json():
    a = SchurExpansion({(2,): 1, (1, 1): -4})
    assert class_to_json(a) == {
        "terms": [
            {"partition": [1, 1], "coeff": "-4"},
            {"partition": [2], "coeff": "1"},
        ]
    }


def test_flag_class_json():
    a = FlagClass(FL3, {(2, 3, 1): 2, (2, 1, 3): 1})
    assert class_to_json(a) == {
        "space": {"type": "complex_flag", "dims": [1, 1, 1]},
        "terms": [
            {"permutation": [2, 1, 3], "coeff": "1"},
            {"permutation": [2, 3, 1], "coeff": "2"},
        ],
    }


def test_halving_class_json_key_by_family():
    assert class_to_json(HalvingClass.basis(GR4R8, (2, 2)))["terms"] == [
        {"partition": [2, 2], "coeff": "1"}
    ]
    osp_obj = class_to_json(HalvingClass.unit(FL222R6))
    assert osp_obj["terms"][0]["osp"] == [[1, 2], [3, 4], [5, 6]]
    perm_obj = class_to_json(HalvingClass.basis(OCT, (2, 1)))
    assert perm_obj["terms"] == [{"permutation": [2, 1, 3], "coeff": "1"}]


def test_result_bigint_threshold():
    assert result_to_json(2 ** 63 - 1) == 2 ** 63 - 1
    assert result_to_json(2 ** 63) == str(2 ** 63)
    assert result_to_json(-(2 ** 63)) == str(-(2 ** 63))
    assert result_to_json({"terms": []}) == {"terms": []}


def _read_decimal(text):
    """Parse `-?N` in 700-digit pieces, each below the str() digit limit."""
    digits = text.removeprefix("-")
    value = 0
    for i in range(0, len(digits), 700):
        piece = digits[i:i + 700]
        value = value * 10 ** len(piece) + int(piece)
    return -value if text.startswith("-") else value


def test_decimal_text_has_no_digit_limit():
    for x in (0, 7, -7, 10 ** 1000 - 1, 10 ** 1000, 10 ** 4300, -(3 ** 20000)):
        text = decimal_text(x)
        assert _read_decimal(text) == x
        assert text.removeprefix("-")[0] != "0" or x == 0
    assert decimal_text(Fraction(6, 3)) == "2"
    assert decimal_text(Fraction(-7, 2)) == "-7/2"
    x = Fraction(-(3 ** 9001), 2 ** 15000)
    num, den = decimal_text(x).split("/")
    assert Fraction(_read_decimal(num), _read_decimal(den)) == x
    assert result_to_json(-(3 ** 9001)) == decimal_text(-(3 ** 9001))


def test_parse_problem_defaults_by_family():
    base = {"conditions": [{"index": [1], "count": 4}]}
    p = parse_problem({"space": space_to_json(GR24), **base})
    assert p.mode == "count"
    p = parse_problem(
        {"space": space_to_json(GR4R8), "conditions": [{"index": [2, 2], "count": 4}]}
    )
    assert p.mode == "lower_bound"
    p = parse_problem({"space": space_to_json(GR2H4), **base})
    assert p.mode == "count"
    p = parse_problem(
        {"space": space_to_json(OCT), "conditions": [{"index": [2, 1, 3], "count": 3}]}
    )
    assert p.mode == "count"


def test_parse_problem_mode_override_and_rejection():
    obj = {
        "space": space_to_json(GR24),
        "conditions": [{"index": [1], "count": 1}],
        "mode": "count",
    }
    assert parse_problem(obj, mode_override="class").mode == "class"
    with pytest.raises(ProblemSchemaError):
        parse_problem({**obj, "mode": "lower_bound"})
    with pytest.raises(ProblemSchemaError):
        parse_problem(
            {
                "space": space_to_json(GR2H4),
                "conditions": [{"index": [1], "count": 4}],
                "mode": "class",
            }
        )


@pytest.mark.parametrize("mode", ["", 0, False, [], {}, None, "bogus", "Count"])
def test_parse_problem_rejects_a_malformed_mode(mode):
    obj = {
        "space": space_to_json(GR24),
        "conditions": [{"index": [1], "count": 4}],
        "mode": mode,
    }
    with pytest.raises(ProblemSchemaError, match="mode"):
        parse_problem(obj)
    # --mode replaces the file's mode without reading it
    assert parse_problem(obj, mode_override="count").mode == "count"


def test_parse_problem_condition_validation():
    space = space_to_json(GR24)
    with pytest.raises(ProblemSchemaError):
        parse_problem({"space": space, "conditions": []})
    with pytest.raises(ProblemSchemaError):
        parse_problem({"space": space})
    with pytest.raises(ProblemSchemaError):
        parse_problem({"space": space, "conditions": [{"count": 2}]})
    with pytest.raises(ProblemSchemaError):
        parse_problem({"space": space, "conditions": [{"index": [1], "count": 0}]})
    with pytest.raises(ProblemSchemaError):
        parse_problem({"space": space, "conditions": [{"index": [1], "corank": 2}]})
    with pytest.raises(ProblemSchemaError) as err:
        parse_problem(
            {
                "space": space,
                "conditions": [{"index": [1], "count": 1}, {"index": [1, 2]}],
            }
        )
    assert "condition 2" in str(err.value)


def test_parse_problem_corank_rules():
    real = space_to_json(GR4R8)
    p = parse_problem({"space": real, "conditions": [{"corank": 2, "count": 4}]})
    assert p.degeneracy == (2, 4)
    assert p.conditions == ()
    gr6r8 = {"type": "real_even_grassmannian", "k": 6, "n": 8}
    need_real = "condition 1: corank conditions need a real even Grassmannian"
    odd = "condition 1: 'corank' must be a positive even integer"
    for space, conditions, message in (
        (space_to_json(GR24), [{"corank": 2, "count": 4}], need_real),
        (space_to_json(FL222R6), [{"corank": 2, "count": 4}], need_real),
        (real, [{"corank": 2, "count": 2}, {"corank": 2, "count": 2}],
         "condition 2: only one corank condition is supported"),
        (real, [{"corank": 2, "count": 2}, {"index": [2, 2], "count": 1}],
         "corank and index conditions cannot be mixed in one problem"),
        (real, [{"corank": 3, "count": 4}], odd),
        (real, [{"corank": True, "count": 4}], odd),
        (real, [{"corank": 6, "count": 4}],
         "condition 1: corank 6 exceeds the bundle rank 4 of Gr(4, R^8)"),
        (gr6r8, [{"corank": 2, "count": 4}],
         "condition 1: corank 2 leaves rank 4, above n-k = 2 on Gr(6, R^8)"),
    ):
        with pytest.raises(ProblemSchemaError) as exc:
            parse_problem({"space": space, "conditions": conditions})
        assert str(exc.value) == message, conditions


def test_parse_problem_echo_and_description():
    obj = {
        "space": space_to_json(GR24),
        "conditions": [{"index": [1], "count": 4}],
        "description": "four lines",
    }
    p = parse_problem(obj)
    assert p.raw is obj
    with pytest.raises(ProblemSchemaError):
        parse_problem({**obj, "description": 7})
