"""Optional chain-of-thought planning over the frozen proposal model.

A plan holds a typed I/O contract, a pseudocode sketch, and up to K named
subgoals whose names double as retrieval subqueries. A token gate disables
planning for short task prompts.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Callable, Sequence

from .config import DEFAULTS
from .errors import ModelProposalError
from .executor import ExecutionFeedback, quote
from .prompting import PLANNING_MARKER, ComposedPrompt, single_segment_prompt
from .util import JsonRecord, text_digest, token_count

log = logging.getLogger(__name__)

PLANNING_TEMPLATE = """{marker}
Write a plan for the task below. Answer with exactly three sections:
CONTRACT: one line typing the inputs and outputs.
SKETCH: short pseudocode.
SUBGOALS: up to {max_subgoals} bullets, each "- name: what to do".

TASK:
{task}
{prior_block}"""

PLANNING_TEMPLATE_VERSION = "v1"


def template_fingerprint() -> dict:
    return {
        "version": PLANNING_TEMPLATE_VERSION,
        "digest": text_digest(PLANNING_TEMPLATE),
    }


@dataclass(frozen=True)
class Plan(JsonRecord):
    """Canonicalized plan: contract, sketch, and (name, body) subgoals."""

    contract: str
    sketch: str
    subgoals: tuple[tuple[str, str], ...]

    def subgoal_names(self) -> list[str]:
        return [name for name, _ in self.subgoals]


_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


def canonical_name(name: str) -> str:
    return _WS_RE.sub(" ", _PUNCT_RE.sub(" ", name.lower())).strip()


def canonicalize(subgoals: Sequence[tuple[str, str]]) -> list[tuple[str, str]]:
    """Lowercase, strip punctuation, collapse whitespace, and deduplicate.

    Exact-name duplicates keep the first occurrence; conflicts (same
    canonical name, different body) also keep the first and drop the rest
    with a logged note. Idempotent.
    """
    kept: list[tuple[str, str]] = []
    bodies: dict[str, str] = {}
    for name, body in subgoals:
        canon = canonical_name(name)
        if not canon:
            continue
        if canon in bodies:
            if bodies[canon] != body:
                log.info("dropping conflicting subgoal %r (keeping first occurrence)", canon)
            continue
        bodies[canon] = body
        kept.append((canon, body))
    return kept


def build_planning_prompt(
    q: str,
    max_subgoals: int,
    prior: tuple[Plan, ExecutionFeedback] | None = None,
) -> str:
    prior_block = ""
    if prior is not None:
        prior_plan, prior_feedback = prior
        headers = "; ".join(prior_plan.subgoal_names()) or "(none)"
        prior_block = (
            f"\nPRIOR SUBGOALS: {headers}\n"
            f"LATEST FAILURES: {failure_summary(prior_feedback)}\n"
        )
    return PLANNING_TEMPLATE.format(
        marker=PLANNING_MARKER,
        max_subgoals=max_subgoals,
        task=q,
        prior_block=prior_block,
    )


def failure_summary(feedback: ExecutionFeedback) -> str:
    """One line naming observed failures only, each kind quoted as feedback quotes it."""
    total = len(feedback.verdicts)
    if feedback.pass_count == total:
        return f"all {total} tests passed"
    parts = [f"{feedback.pass_count}/{total} tests passed"]
    parts.extend(f"test {detail.test_id}: {quote(detail.kind)}" for detail in feedback.failures)
    return "; ".join(parts)


_SECTION_RE = re.compile(r"^\s*(CONTRACT|SKETCH|SUBGOALS)\s*:?\s*(.*)$", re.IGNORECASE)
_BULLET_RE = re.compile(r"^\s*[-*]\s+(.*)$")


def parse_plan_text(text: str) -> tuple[str, str, list[tuple[str, str]]]:
    """Forgiving parser for the three-section plan answer.

    Missing sections yield empty values; a plan without subgoals is still
    usable for prompting.
    """
    sections: dict[str, list[str]] = {"CONTRACT": [], "SKETCH": [], "SUBGOALS": []}
    current: str | None = None
    for line in text.splitlines():
        match = _SECTION_RE.match(line)
        if match:
            current = match.group(1).upper()
            rest = match.group(2).strip()
            if rest:
                sections[current].append(rest)
            continue
        if current:
            sections[current].append(line)
    contract = "\n".join(sections["CONTRACT"]).strip()
    sketch = "\n".join(sections["SKETCH"]).strip()
    subgoals: list[tuple[str, str]] = []
    for line in sections["SUBGOALS"]:
        bullet = _BULLET_RE.match(line)
        if not bullet:
            continue
        entry = bullet.group(1).strip()
        if ":" in entry:
            name, body = entry.split(":", 1)
            subgoals.append((name.strip(), body.strip()))
        else:
            subgoals.append((entry, ""))
    return contract, sketch, subgoals


def plan(
    q: str,
    propose: Callable[[ComposedPrompt], tuple],
    prior: tuple[Plan, ExecutionFeedback] | None = None,
    *,
    max_subgoals: int = DEFAULTS["max_subgoals"],
    gate_tokens: int = DEFAULTS["plan_gate_tokens"],
) -> Plan | None:
    """Produce a canonicalized plan, or None when gated or on model failure.

    ``propose(prompt)`` makes one model call. The gate rejects prompts shorter
    than ``gate_tokens`` whitespace tokens without calling it. When a prior
    (plan, feedback) pair is supplied the planning prompt carries the prior
    subgoal headers and the latest failure summary.
    """
    if token_count(q) < gate_tokens:
        return None
    prompt = single_segment_prompt(build_planning_prompt(q, max_subgoals, prior))
    try:
        text, _usage = propose(prompt)
    except ModelProposalError as exc:
        log.warning("planning model call failed (%s); proceeding without a plan", exc)
        return None
    contract, sketch, raw_subgoals = parse_plan_text(text)
    subgoals = canonicalize(raw_subgoals)[:max_subgoals]
    return Plan(contract=contract, sketch=sketch, subgoals=tuple(subgoals))
