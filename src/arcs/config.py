"""Layered key=value configuration: flag > config file > built-in default."""

from __future__ import annotations

import math
import re
from pathlib import Path

from .errors import ConfigError

DEFAULTS: dict[str, object] = {
    "tier": "small",
    "budget_b": None,  # None: the named tier's own budget, from controller.TIERS
    "budget_k": None,
    "max_subgoals": 4,
    "temperature": 0.7,
    "top_p": 0.95,
    "max_output_tokens": 512,
    "seed": 42,
    "input_cap": 4096,
    "wall_seconds": 10.0,
    "memory_bytes": 4 * 1024**3,
    "model": "scripted",
    "script": "",
    "endpoint": "",
    "embed_endpoint": "",
    "snapshot": "",
    "denylist": "",
    "delta": 0.85,
    "plan_gate_tokens": 120,
    "max_stack_lines": 10,
}


def coerce(key: str, raw: str):
    """A key's value typed like its default; the one parse of flags and file lines."""
    default = DEFAULTS[key]
    try:
        if key in ("budget_b", "budget_k") or isinstance(default, int):
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
    """Merge with precedence flag > file > default and range-check the result. Keys are
    checked where they are read: the CLI's flags are the ``DEFAULTS`` keys, and
    ``parse_config_text`` rejects any other."""
    resolved = {**DEFAULTS, **(file_values or {}), **flag_values}
    check_loop_settings(resolved)
    return resolved


def check_loop_settings(cfg: dict) -> None:
    """Range checks on the loop's settings, for flags, files and library configs alike."""
    def number(key):
        if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, float)):
            raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
        return cfg[key]
    for key in ("delta", "top_p"):
        if not 0.0 < number(key) <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1], got {cfg[key]}")
    for key, low in (
        ("max_subgoals", 0),
        ("plan_gate_tokens", 0),
        ("max_stack_lines", 0),
        ("temperature", 0),
        ("input_cap", 1),
        ("max_output_tokens", 1),
    ):
        if not low <= number(key) < math.inf:  # exact for an int too large for a float
            raise ConfigError(f"{key} must be a finite number >= {low}, got {cfg[key]}")
