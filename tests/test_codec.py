"""Round trips and decode errors of the shared dataclass JSON codec."""

from __future__ import annotations

import dataclasses
import json
import re
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arcs  # noqa: F401  (imports every module, so every record class exists)
from arcs.controller import RoundCost
from arcs.executor import TestCase as Case
from arcs.executor import TestSuite as Suite
from arcs.model import ScriptEntry, ScriptFile
from arcs.util import JsonRecord, decode_record

RECORDS = sorted(JsonRecord.__subclasses__(), key=lambda cls: cls.__name__)

_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
_SCALARS = {
    int: st.integers(min_value=1, max_value=2**40),
    float: st.floats(allow_nan=False, allow_infinity=False),
    bool: st.booleans(),
    str: st.text(max_size=8),
    dict: st.dictionaries(st.text(max_size=5), _JSON_SCALARS, max_size=3),
    type(None): st.none(),
}


def _strategy(hint) -> st.SearchStrategy:
    """Values of ``hint`` that its class accepts, read from the type hints."""
    if hint is Suite:
        cases = st.lists(_strategy(Case), min_size=1, max_size=3, unique_by=lambda c: c.id)
        return st.builds(Suite, cases=cases.map(tuple), compare=st.sampled_from(["trim", "exact"]))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*map(_strategy, args))
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        fields = {spec.name: _strategy(hints[spec.name]) for spec in dataclasses.fields(hint)}
        return st.builds(hint, **fields)
    if origin is tuple and args[-1] is not Ellipsis:
        return st.tuples(*map(_strategy, args))
    if origin in (list, tuple):
        return st.lists(_strategy(args[0]), max_size=2).map(origin)
    return _SCALARS[hint]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_record_survives_json_round_trip(cls, data):
    record = data.draw(_strategy(cls))
    text = json.dumps(record.to_jsonable())
    assert cls.from_jsonable(json.loads(text)) == record
    untimed = record.to_jsonable(include_timing=False)
    assert cls.from_jsonable(untimed).to_jsonable(include_timing=False) == untimed


@pytest.mark.parametrize(
    "cls, data, message",
    [
        (Suite, {"cases": [{"id": 1, "input": ""}]}, r"cases\[0\]\.expected: missing field"),
        (Suite, {"cases": [{"id": "one", "input": "", "expected": ""}]}, r"cases\[0\]\.id: expected int"),
        (Suite, {"cases": "1 2 -> 3"}, r"cases: expected a list"),
        (Suite, "1 2 -> 3", r"TestSuite: expected an object"),
        (ScriptEntry, {"response": 3}, r"response: expected str"),
        (ScriptEntry, {"response": "", "feedback": "false"}, r"feedback: expected bool"),
        (Suite, {"cases": [{"id": 1, "input": "", "expected": "", "expcted": ""}]}, r"cases\[0\]: unknown key 'expcted'"),
        (Suite, {"cases": [{"id": 2.9, "input": "", "expected": ""}]}, r"^cases\[0\]\.id: expected int, got 2\.9$"),
        (Suite, {"cases": [{"id": "2", "input": "", "expected": ""}]}, r"^cases\[0\]\.id: expected int, got '2'$"),
        (Suite, {"cases": [{"id": True, "input": "", "expected": ""}]}, r"^cases\[0\]\.id: expected int, got True$"),
        (ScriptFile, [{"response": "x"}], r"^ScriptFile: expected an object, got list$"),
    ],
)
def test_decode_names_the_bad_field(cls, data, message):
    with pytest.raises(ValueError, match=message):
        decode_record(cls, data)


_WRONG_KINDS = {int: (True, 2.5, "2"), float: (True, "2.5"), bool: (1, "true")}


def _number_fields(cls):
    """(name, kind, listed) of each field of ``cls`` that holds an int, float or bool,
    optional or not, or a list of them (``listed``), read from its type hints."""
    for name, hint in typing.get_type_hints(cls).items():
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin in (typing.Union, types.UnionType):
            hint = next(arg for arg in args if arg is not type(None))
        if hint in _WRONG_KINDS:
            yield name, hint, False
        elif (origin is list or origin is tuple and args[-1] is Ellipsis) and args[0] in _WRONG_KINDS:
            yield name, args[0], True


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_number_field_refuses_a_value_of_another_kind(cls, data):
    # a bool is no number, 2.5 no int, and a string none of them; nothing is converted
    valid = data.draw(_strategy(cls)).to_jsonable()
    for name, kind, listed in _number_fields(cls):
        where = f"{name}[0]" if listed else name
        for wrong in _WRONG_KINDS[kind]:
            with pytest.raises(ValueError, match=rf"^{re.escape(where)}: expected {kind.__name__}, got "):
                decode_record(cls, {**valid, name: [wrong] if listed else wrong})


def test_an_integer_in_a_float_field_reads_as_a_float():
    cost = decode_record(RoundCost, {"retrieval": 1, "prompt_input": 0, "prompt_output": 0.5, "execution": 3})
    assert cost == RoundCost(1.0, 0.0, 0.5, 3.0) and type(cost.retrieval) is float
    with pytest.raises(ValueError, match=r"^execution: expected float, got 1000"):
        decode_record(RoundCost, {**cost.to_jsonable(), "execution": 10**400})
