"""Layered key=value configuration: flag > config file > built-in default."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .util import check_field_types, decode_record, encode_record


@dataclass(frozen=True)
class Settings:
    """The loop's settings: one field per config key, with its type and default."""

    tier: str = "small"
    budget_b: int | None = None  # None: the named tier's own budget, from controller.TIERS
    budget_k: int | None = None
    max_subgoals: int = 4
    temperature: float = 0.7
    top_p: float = 0.95
    max_output_tokens: int = 512
    seed: int = 42
    input_cap: int = 4096
    wall_seconds: float = 10.0
    memory_bytes: int = 4 * 1024**3
    model: str = "scripted"
    script: str = ""
    endpoint: str = ""
    embed_endpoint: str = ""
    snapshot: str = ""
    denylist: str = ""
    delta: float = 0.85
    plan_gate_tokens: int = 120
    max_stack_lines: int = 10

    def __post_init__(self):
        check_field_types(self)
        cfg = vars(self)
        for key in ("delta", "top_p"):
            if not 0.0 < cfg[key] <= 1.0:
                raise ValueError(f"{key} must be in (0, 1], got {cfg[key]}")
        for key, low in (
            ("max_subgoals", 0),
            ("plan_gate_tokens", 0),
            ("max_stack_lines", 0),
            ("temperature", 0),
            ("input_cap", 1),
            ("max_output_tokens", 1),
        ):
            if not low <= cfg[key] < math.inf:  # exact for an int too large for a float
                raise ValueError(f"{key} must be a finite number >= {low}, got {cfg[key]}")

    @classmethod
    def of(cls, config: dict) -> "Settings":
        """``config``'s keys over the defaults, by the codec's rule: no unknown key, and
        a value of its field's type. ``embedder``, a retired key older run logs hold, is dropped."""
        return checked(decode_record, cls, {k: v for k, v in config.items() if k != "embedder"})


DEFAULTS: dict[str, object] = encode_record(Settings())


def coerce(key: str, raw: str):
    """A key's value typed like its default; the one parse of flags and file lines."""
    default = DEFAULTS[key]
    try:
        if default is None or isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key} has a bad value {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines. A # starts a comment at the start of a
    line or after whitespace, so a value such as a URL fragment keeps its #."""
    values: dict[str, object] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {number} is not key = value: {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} on line {number}")
        values[key] = coerce(key, raw)
    return values


def read_input_file(path: str | Path, what: str) -> str:
    """Text of a user-named input file; an unreadable one is a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def checked(record_type, *args, **kwargs):
    """A record built from user values; a value it rejects is a ConfigError."""
    try:
        return record_type(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config_file(path: str | Path) -> dict:
    return parse_config_text(read_input_file(path, "config file"))


def resolve_config(flag_values: dict, file_values: dict | None = None) -> dict:
    """Merge with precedence flag > file > default, read by ``Settings.of``."""
    return encode_record(Settings.of({**(file_values or {}), **flag_values}))
