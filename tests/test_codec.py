"""Round trips and decode errors of the shared dataclass JSON codec."""

from __future__ import annotations

import dataclasses
import json
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arcs  # noqa: F401  (imports every module, so every record class exists)
from arcs.executor import TestCase as Case
from arcs.executor import TestSuite as Suite
from arcs.model import ScriptEntry
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
    ],
)
def test_decode_names_the_bad_field(cls, data, message):
    with pytest.raises(ValueError, match=message):
        decode_record(cls, data)
