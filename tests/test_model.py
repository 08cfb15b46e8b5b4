from __future__ import annotations

import json
from dataclasses import replace

import pytest

from arcs.errors import ModelProposalError, TransportError
from arcs.model import (
    DecodingParams,
    RemoteModel,
    ScriptedModel,
    Usage,
    extract_code,
)
from arcs.prompting import single_segment_prompt

from helpers import fenced


def test_decoding_defaults():
    params = DecodingParams()
    assert (params.temperature, params.top_p, params.max_output_tokens, params.seed) == (
        0.7,
        0.95,
        512,
        42,
    )


def test_scripted_feedback_triggers():
    model = ScriptedModel(
        [
            {"feedback": False, "response": "buggy"},
            {"feedback": True, "response": "fixed"},
        ]
    )
    params = DecodingParams()
    clean = single_segment_prompt("task text only")
    with_fb = single_segment_prompt("task text\n[[FEEDBACK 1]]\ntests: 1:pass")
    assert model.propose(clean, params)[0] == "buggy"
    assert model.propose(with_fb, params)[0] == "fixed"


def test_scripted_is_deterministic_per_ordinal():
    entries = [{"ordinal": 0, "response": "first"}, {"response": "rest"}]
    model = ScriptedModel(entries)
    params = DecodingParams()
    prompt = single_segment_prompt("same prompt")
    first_run = [model.propose(prompt, replace(params, call=n))[0] for n in range(3)]
    second_run = [model.propose(prompt, replace(params, call=n))[0] for n in range(3)]
    assert first_run == second_run == ["first", "rest", "rest"]


def test_scripted_needles_and_absent():
    model = ScriptedModel(
        [
            {"needles": ["TASK-A", "[[EVIDENCE"], "response": "a-with-evidence"},
            {"needles": ["TASK-A"], "absent": ["[[EVIDENCE"], "response": "a-plain"},
        ]
    )
    params = DecodingParams()
    assert model.propose(single_segment_prompt("TASK-A [[EVIDENCE 1]]"), params)[0] == "a-with-evidence"
    assert model.propose(single_segment_prompt("TASK-A only"), replace(params, call=1))[0] == "a-plain"


def test_scripted_no_match_is_hard_failure():
    model = ScriptedModel([{"needles": ["never-present"], "response": "x"}])
    with pytest.raises(ModelProposalError):
        model.propose(single_segment_prompt("p"), DecodingParams())


def test_scripted_usage_counts_tokens():
    model = ScriptedModel([{"response": "two words"}])
    text, usage = model.propose(single_segment_prompt("one two three"), DecodingParams())
    assert usage == Usage(input_tokens=3, output_tokens=2)


def test_scripted_round_trips_through_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            {
                "model_id": "demo",
                "entries": [{"feedback": False, "response": "r"}],
            }
        ),
        encoding="utf-8",
    )
    model = ScriptedModel.from_file(path)
    assert model.model_id == "demo"
    same = ScriptedModel([{"feedback": False, "response": "r"}], model_id="demo")
    assert model.script_digest == same.script_digest


def test_remote_model_retries_then_succeeds():
    attempts = []

    def flaky(url, payload, timeout, token=None):
        attempts.append(payload["seed"])
        if len(attempts) < 3:
            raise TransportError("connection reset")
        return {"text": "ok", "usage": {"input_tokens": 5, "output_tokens": 1}}

    model = RemoteModel("https://model.example/v1", transport=flaky, backoff_seconds=0.0)
    text, usage = model.propose(single_segment_prompt("p"), DecodingParams())
    assert text == "ok"
    assert usage == Usage(input_tokens=5, output_tokens=1)
    assert len(attempts) == 3


def test_remote_model_exhausts_retries():
    def always_down(url, payload, timeout, token=None):
        raise TransportError("no route")

    model = RemoteModel("https://model.example/v1", transport=always_down, backoff_seconds=0.0)
    with pytest.raises(ModelProposalError):
        model.propose(single_segment_prompt("p"), DecodingParams())


def test_remote_model_carries_decoding_params():
    seen = {}

    def capture(url, payload, timeout, token=None):
        seen.update(payload)
        return {"text": "t"}

    model = RemoteModel("https://model.example/v1", transport=capture)
    model.propose(single_segment_prompt("the prompt"), DecodingParams(seed=7, temperature=0.2))
    assert seen["prompt"] == "the prompt"
    assert seen["seed"] == 7
    assert seen["temperature"] == 0.2
    assert seen["max_tokens"] == 512


@pytest.mark.parametrize(
    "reply",
    [
        {"text": "x", "usage": {"input_tokens": "lots"}},
        ["text", "x"],
        {"text": 5},
        {"text": "x", "usage": [1, 2]},
    ],
    ids=["usage_not_a_number", "not_an_object", "text_not_a_string", "usage_not_an_object"],
)
def test_remote_model_malformed_reply_is_hard_failure(reply):
    model = RemoteModel("https://model.example/v1", transport=lambda *args, **kwargs: reply)
    with pytest.raises(ModelProposalError):
        model.propose(single_segment_prompt("p"), DecodingParams())


def test_extract_code_variants():
    code = "print('hi')"
    assert extract_code(fenced(code)) == code
    assert extract_code(code) == code
    two_blocks = f"intro\n{fenced('first')}\nmiddle\n{fenced('second')}\ntail"
    assert extract_code(two_blocks) == "first"
    unclosed = "text\n```python\nbody line\n"
    assert extract_code(unclosed) == "body line\n"
    assert extract_code("") == ""
