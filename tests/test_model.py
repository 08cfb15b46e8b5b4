from __future__ import annotations

import io
import json
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from arcs import model as model_module
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


@pytest.fixture
def backoffs(monkeypatch):
    """The backoff sleeps a remote model takes, recorded instead of slept."""
    slept = []
    monkeypatch.setattr(model_module.time, "sleep", slept.append)
    return slept


def test_remote_model_retries_then_succeeds(backoffs):
    attempts = []

    def flaky(url, payload, timeout):
        attempts.append(payload["seed"])
        if len(attempts) < 3:
            raise TransportError("connection reset")
        return {"text": "ok", "usage": {"input_tokens": 5, "output_tokens": 1}}

    model = RemoteModel("https://model.example/v1", transport=flaky)
    text, usage = model.propose(single_segment_prompt("p"), DecodingParams())
    assert text == "ok"
    assert usage == Usage(input_tokens=5, output_tokens=1)
    assert len(attempts) == 3
    assert backoffs == [0.5, 0.5]


def test_remote_model_exhausts_retries(backoffs):
    timeouts = []

    def always_down(url, payload, timeout):
        timeouts.append(timeout)
        raise TransportError("no route")

    model = RemoteModel("https://model.example/v1", transport=always_down)
    with pytest.raises(ModelProposalError):
        model.propose(single_segment_prompt("p"), DecodingParams())
    assert timeouts == [60.0, 60.0, 60.0]
    assert backoffs == [0.5, 0.5]


def test_remote_model_carries_decoding_params():
    seen = {}

    def capture(url, payload, timeout):
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
        {"text": "x", "usage": {"input_tokens": 3.7, "output_tokens": 2}},
        {"text": "x", "usage": {"input_tokens": 3, "output_tokens": True}},
    ],
    ids=[
        "usage_not_a_number",
        "not_an_object",
        "text_not_a_string",
        "usage_not_an_object",
        "usage_float",
        "usage_bool",
    ],
)
def test_remote_model_malformed_reply_is_hard_failure(reply):
    model = RemoteModel("https://model.example/v1", transport=lambda *args, **kwargs: reply)
    with pytest.raises(ModelProposalError):
        model.propose(single_segment_prompt("p"), DecodingParams())


class _FakeEndpoint:
    """Stands in for ``urllib.request.urlopen``: records each request and answers
    with ``reply`` bytes, or raises ``reply`` if it is an exception."""

    def __init__(self, reply):
        self.reply = reply
        self.requests = []

    def __call__(self, request, timeout):
        self.requests.append(request)
        if isinstance(self.reply, Exception):
            raise self.reply
        return io.BytesIO(self.reply)


def test_default_transport_sends_the_token_and_the_json_payload(monkeypatch):
    endpoint = _FakeEndpoint(json.dumps({"text": "ok", "usage": {"input_tokens": 3, "output_tokens": 1}}).encode())
    monkeypatch.setattr(urllib.request, "urlopen", endpoint)
    monkeypatch.setenv("ARCS_API_TOKEN", "secret-token")
    model = RemoteModel("https://model.example/v1")
    assert model.propose(single_segment_prompt("the prompt"), DecodingParams(seed=7)) == (
        "ok",
        Usage(input_tokens=3, output_tokens=1),
    )
    (request,) = endpoint.requests
    assert (request.full_url, request.get_method()) == ("https://model.example/v1", "POST")
    assert request.get_header("Authorization") == "Bearer secret-token"
    assert request.get_header("Content-type") == "application/json"
    payload = json.loads(request.data)
    assert (payload["prompt"], payload["seed"], payload["max_tokens"]) == ("the prompt", 7, 512)


@pytest.mark.parametrize(
    "reply",
    [urllib.error.URLError("no route to host"), b"<html>bad gateway</html>"],
    ids=["unreachable", "not_json"],
)
def test_default_transport_failures_are_retried_then_a_hard_failure(monkeypatch, backoffs, reply):
    endpoint = _FakeEndpoint(reply)
    monkeypatch.setattr(urllib.request, "urlopen", endpoint)
    model = RemoteModel("https://model.example/v1")
    with pytest.raises(ModelProposalError) as caught:
        model.propose(single_segment_prompt("p"), DecodingParams())
    assert isinstance(caught.value.__cause__, TransportError)
    assert len(endpoint.requests) == 3


def test_extract_code_variants():
    code = "print('hi')"
    assert extract_code(fenced(code)) == code
    assert extract_code(code) == code
    two_blocks = f"intro\n{fenced('first')}\nmiddle\n{fenced('second')}\ntail"
    assert extract_code(two_blocks) == "first"
    unclosed = "text\n```python\nbody line\n"
    assert extract_code(unclosed) == "body line\n"
    assert extract_code("") == ""
