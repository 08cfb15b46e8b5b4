"""Shared hashing, token-counting, JSON record codec, and transport helpers."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from datetime import datetime, timezone

from .errors import TransportError

CREDENTIAL_ENV_VAR = "ARCS_API_TOKEN"

TIMING = {"timing": True}
"""Field metadata for a wall-clock value: left out when timing is excluded."""


def token_count(text: str) -> int:
    """Number of maximal non-whitespace runs in ``text``."""
    return len(text.split())


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_digest(obj) -> str:
    return text_digest(canonical_json(obj))


class JsonRecord:
    """Base of the dataclasses that are written to and read from JSON.

    The JSON keys are the dataclass fields. A subclass may name properties
    in ``json_derived``; they are written after the fields and ignored when
    read back. With ``json_sparse`` set, fields equal to their default are
    left out.
    """

    json_derived = ()
    json_sparse = False

    def to_jsonable(self, include_timing: bool = True) -> dict:
        return encode_record(self, include_timing)

    @classmethod
    def from_jsonable(cls, data):
        return decode_record(cls, data)


def encode_record(record, include_timing: bool = True) -> dict:
    """Fields of a dataclass as JSON values; tuples become lists.

    Without ``include_timing`` the fields marked ``TIMING`` are left out, in
    nested records too.
    """
    sparse = getattr(record, "json_sparse", False)
    encoded = {}
    for spec in dataclasses.fields(record):
        if not include_timing and spec.metadata.get("timing"):
            continue
        value = getattr(record, spec.name)
        if sparse and value == _default(spec):
            continue
        encoded[spec.name] = _encode(value, include_timing)
    for name in getattr(record, "json_derived", ()):
        encoded[name] = _encode(getattr(record, name), include_timing)
    return encoded


def _encode(value, include_timing: bool):
    if dataclasses.is_dataclass(value):
        return encode_record(value, include_timing)
    if isinstance(value, (list, tuple)):
        return [_encode(item, include_timing) for item in value]
    return value


def _default(spec: dataclasses.Field):
    if spec.default_factory is not dataclasses.MISSING:
        return spec.default_factory()
    return spec.default


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def decode_record(cls, data, path: str = ""):
    """Rebuild dataclass ``cls`` from JSON ``data``, checking field types.

    Missing fields take their default; a missing timing field reads as the
    empty value of its type. A bare list stands for the record's first
    field. Any missing or ill-typed field raises ValueError naming its path.
    """
    fields = dataclasses.fields(cls)
    if isinstance(data, list):
        data = {fields[0].name: data}
    if not isinstance(data, dict):
        raise ValueError(f"{path or cls.__name__}: expected an object, got {type(data).__name__}")
    hints = _field_types(cls)
    values = {}
    for spec in fields:
        where = f"{path}.{spec.name}" if path else spec.name
        if spec.name in data:
            values[spec.name] = _decode(hints[spec.name], data[spec.name], where)
        elif spec.metadata.get("timing"):
            values[spec.name] = (typing.get_origin(hints[spec.name]) or hints[spec.name])()
        elif _default(spec) is dataclasses.MISSING:
            raise ValueError(f"{where}: missing field")
    return cls(**values)


def _decode(hint, value, where: str):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _decode(hint, value, where)
    if dataclasses.is_dataclass(hint):
        return decode_record(hint, value, where)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where}: expected a list, got {type(value).__name__}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
            item_hints = args
        else:
            item_hints = args[:1] * len(value)
        items = [
            _decode(item_hint, item, f"{where}[{i}]")
            for i, (item_hint, item) in enumerate(zip(item_hints, value))
        ]
        return tuple(items) if origin is tuple else items
    if hint is bool and not isinstance(value, bool):
        raise ValueError(f"{where}: expected bool, got {value!r:.40}")
    if hint in (int, float, bool):
        try:
            return hint(value)
        except (TypeError, ValueError):
            raise ValueError(f"{where}: expected {hint.__name__}, got {value!r:.40}") from None
    if not isinstance(value, origin or hint):
        raise ValueError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    return value


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def http_post_json(url: str, payload: dict, timeout: float, token: str | None = None) -> dict:
    """POST ``payload`` as JSON and decode the JSON reply.

    Raises TransportError on connection problems, non-2xx statuses, or
    undecodable replies so callers can apply their retry policy.
    """
    import urllib.error  # imported here: it loads http.client, ssl and email
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise TransportError(f"request to endpoint failed: {exc.__class__.__name__}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TransportError("endpoint returned undecodable reply") from exc
