from __future__ import annotations

import math

import pytest

from arcs.config import resolve_config
from arcs.errors import ConfigError


@pytest.mark.parametrize(
    "key, value",
    [("temperature", math.nan), ("temperature", math.inf), ("input_cap", math.inf), ("input_cap", math.nan)],
)
def test_non_finite_loop_setting_is_rejected(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_config({key: value})
