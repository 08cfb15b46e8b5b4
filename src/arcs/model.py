"""Frozen proposal-model boundary: decoding parameters and adapters.

The model never learns; the only cross-round channel is the prompt. The
scripted adapter makes end-to-end repair-loop tests reproducible without a
network; the remote adapter speaks a minimal JSON protocol.
"""

from __future__ import annotations

import json
import logging
import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .config import DEFAULTS
from .errors import ConfigError, ModelProposalError, TransportError
from .prompting import ComposedPrompt, FEEDBACK_MARKER
from .util import (
    JsonRecord,
    decode_record,
    http_post_json,
    json_digest,
    token_count,
)

log = logging.getLogger(__name__)

TIMEOUT_SECONDS = 60.0  # per request
RETRIES = 2  # after the first attempt
BACKOFF_SECONDS = 0.5  # between attempts


@dataclass(frozen=True)
class DecodingParams(JsonRecord):
    """Sampling configuration carried to the proposal model."""

    temperature: float = DEFAULTS["temperature"]
    top_p: float = DEFAULTS["top_p"]
    max_output_tokens: int = DEFAULTS["max_output_tokens"]
    seed: int = DEFAULTS["seed"]
    call: int = 0  # the call's 0-based number within its run; set by run, not a config key


@dataclass(frozen=True)
class Usage(JsonRecord):
    input_tokens: int
    output_tokens: int


class ProposalModel(ABC):
    """A frozen text-proposal backbone; an adapter keeps no per-run state."""

    model_id: str

    @abstractmethod
    def propose(self, prompt: ComposedPrompt, params: DecodingParams) -> tuple[str, Usage]:
        """Return (candidate text, token usage) for one call."""


@dataclass(frozen=True)
class ScriptEntry(JsonRecord):
    """One trigger/response pair of a scripted model.

    An entry matches a call when every stated condition holds: ``feedback``
    constrains presence/absence of the feedback marker in the prompt,
    ``needles`` must all appear, ``absent`` must not appear, and ``ordinal``
    is ``DecodingParams.call``, the call's number within its run. Conditions
    left unstated are also left out of the entry's JSON, which the script digest covers.
    """

    response: str
    feedback: bool | None = None
    needles: tuple[str, ...] = ()
    absent: tuple[str, ...] = ()
    ordinal: int | None = None

    json_sparse = True

    def matches(self, prompt_text: str, ordinal: int) -> bool:
        if self.feedback is not None and (FEEDBACK_MARKER in prompt_text) != self.feedback:
            return False
        if any(needle not in prompt_text for needle in self.needles):
            return False
        if any(marker in prompt_text for marker in self.absent):
            return False
        if self.ordinal is not None and self.ordinal != ordinal:
            return False
        return True


@dataclass(frozen=True)
class ScriptFile:
    """The top level of a script file; ``ScriptedModel`` decodes each entry."""

    model_id: str = "scripted"
    entries: tuple[dict, ...] = ()


class ScriptedModel(ProposalModel):
    """Deterministic model driven by an ordered trigger/response script.

    Each call scans entries in order and answers with the first match, so an
    answer is a pure function of the prompt and ``params.call``; the model
    keeps no state. No matching entry is a hard model failure for that call.
    """

    def __init__(self, entries: list[dict], model_id: str = "scripted"):
        self.model_id = model_id
        self.entries = tuple(
            decode_record(ScriptEntry, entry, f"entries[{position}]")
            for position, entry in enumerate(entries)
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedModel":
        """Script file: {"model_id": ..., "entries": [entry, ...]}."""
        try:
            script = decode_record(ScriptFile, json.loads(Path(path).read_text(encoding="utf-8")))
            return cls(list(script.entries), model_id=script.model_id)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad script file {path}: {exc}") from exc

    @property
    def script_digest(self) -> str:
        return json_digest(
            {"model_id": self.model_id, "entries": [entry.to_jsonable() for entry in self.entries]}
        )

    def propose(self, prompt: ComposedPrompt, params: DecodingParams) -> tuple[str, Usage]:
        for entry in self.entries:
            if entry.matches(prompt.text, params.call):
                usage = Usage(
                    input_tokens=prompt.total_tokens,
                    output_tokens=token_count(entry.response),
                )
                return entry.response, usage
        raise ModelProposalError(f"no script entry matches call ordinal {params.call}")


class RemoteModel(ProposalModel):
    """Adapter for a remote completion endpoint.

    One request carries {prompt, temperature, top_p, max_tokens, seed} and
    the reply must contain {"text": ..., "usage": {...}}, whose token counts, if
    given, are integers. The default
    transport reads the credential from the environment, and it never
    appears in logs. Transport failures are retried ``RETRIES`` times with fixed
    backoff, then surface as a hard model failure; a malformed reply is one at once.
    """

    def __init__(
        self,
        endpoint: str,
        model_id: str = "remote",
        transport: Callable[..., dict] | None = None,
    ):
        if not endpoint:
            raise ValueError("endpoint required")
        self.endpoint = endpoint
        self.model_id = model_id
        self._transport = transport or http_post_json

    def propose(self, prompt: ComposedPrompt, params: DecodingParams) -> tuple[str, Usage]:
        payload = {
            "prompt": prompt.text,
            "temperature": params.temperature,
            "top_p": params.top_p,
            "max_tokens": params.max_output_tokens,
            "seed": params.seed,
        }
        last_error: TransportError | None = None
        for attempt in range(RETRIES + 1):
            try:
                reply = self._transport(self.endpoint, payload, TIMEOUT_SECONDS)
                break
            except TransportError as exc:
                last_error = exc
                if attempt < RETRIES:
                    log.warning("transport failure (attempt %d), retrying", attempt + 1)
                    time.sleep(BACKOFF_SECONDS)
        else:
            raise ModelProposalError(f"transport failure after {RETRIES} retries") from last_error
        text = reply.get("text", "") if isinstance(reply, dict) else None
        usage_reply = (reply.get("usage") or {}) if isinstance(reply, dict) else None
        if not isinstance(text, str) or not isinstance(usage_reply, dict):
            raise ModelProposalError(f"malformed model reply {reply!r:.80}")
        counts = {"input_tokens": prompt.total_tokens, "output_tokens": token_count(text)}
        try:
            usage = decode_record(Usage, {key: usage_reply.get(key, count) for key, count in counts.items()})
        except ValueError as exc:
            raise ModelProposalError(f"malformed usage in model reply: {exc}") from exc
        if not text:
            log.warning("model returned an empty response; candidate will fail all tests")
        return text, usage


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)(?:\n)?```", re.DOTALL)
_OPEN_FENCE_RE = re.compile(r"```[^\n]*\n(.*)\Z", re.DOTALL)


def extract_code(candidate_text: str) -> str:
    """First fenced code block if present, else the raw text unchanged."""
    match = _FENCE_RE.search(candidate_text)
    if match:
        return match.group(1)
    match = _OPEN_FENCE_RE.search(candidate_text)
    if match:
        return match.group(1)
    return candidate_text
