from __future__ import annotations

import math

import pytest

from arcs.config import Settings, parse_config_text, resolve_config
from arcs.errors import ConfigError


@pytest.mark.parametrize(
    "key, value",
    [("temperature", math.nan), ("temperature", math.inf), ("input_cap", math.inf), ("input_cap", math.nan)],
)
def test_non_finite_loop_setting_is_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_config({key: value})


def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace():
    text = "# header\n  # indented\nendpoint = http://h/v1#frag # note\nseed = 3\t# tab note\n"
    assert parse_config_text(text) == {"endpoint": "http://h/v1#frag", "seed": 3}


@pytest.mark.parametrize(
    "key, value", [("max_stack_lines", 2.5), ("delta", "x"), ("model", 5), ("budget_b", True)]
)
def test_settings_built_in_code_obey_the_codec_rule(key, value):
    with pytest.raises(ValueError, match=key):
        Settings(**{key: value})
