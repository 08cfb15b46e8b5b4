"""Prompt segment rendering, composition, and stable truncation.

Segment order is fixed (environment, invariants, task, plan, evidence in
retrieval order, feedback in chronological order) so composed prompts are
deterministic and replayable. Sections carry named markers so run logs stay
human-auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from .config import DEFAULTS
from .errors import ContextExhaustedError
from .util import text_digest, token_count

if TYPE_CHECKING:
    from .corpus import CorpusItem
    from .planner import Plan
    from .retrieval import RetrievalResult

SEGMENT_KINDS = ("env", "inv", "task", "plan", "evid", "fb")

SECTION_HEADERS = {
    "env": "[[ENVIRONMENT]]",
    "inv": "[[INVARIANTS]]",
    "task": "[[TASK]]",
    "plan": "[[PLAN]]",
    "evid": "[[EVIDENCE]]",
    "fb": "[[FEEDBACK]]",
}
PLANNING_MARKER = "[[PLANNING]]"
# Prefix form: rendered feedback headers are numbered ("[[FEEDBACK 1]]").
FEEDBACK_MARKER = "[[FEEDBACK"
SEGMENT_DELIMITER = "\n\n"

TEMPLATE_VERSION = "v1"


def template_fingerprint() -> dict:
    """Version and digest of the composition templates, recorded in run logs."""
    source = "|".join(
        [TEMPLATE_VERSION, SEGMENT_DELIMITER]
        + [f"{kind}:{SECTION_HEADERS[kind]}" for kind in SEGMENT_KINDS]
        + [PLANNING_MARKER]
    )
    return {"version": TEMPLATE_VERSION, "digest": text_digest(source)}


@dataclass(frozen=True)
class PromptSegment:
    """One typed chunk of the composed prompt.

    ``similarity`` carries the retrieval score for evidence segments and
    drives truncation order. ``collapsed_text`` is the reduced form a plan
    segment falls back to under context pressure.
    """

    kind: str
    text: str
    similarity: float | None = None
    collapsed_text: str | None = None

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ValueError(f"unknown segment kind {self.kind!r}")


@dataclass(frozen=True)
class ComposedPrompt:
    """Ordered segments plus the rendered text, its size, and its digest."""

    segments: tuple[PromptSegment, ...]
    text: str
    total_tokens: int
    digest: str


def render(item: "CorpusItem", similarity: float | None = None) -> PromptSegment:
    """Render a corpus item as an evidence segment.

    A fenced block whose first line is ``signature — doc`` (signature only
    when the doc is empty), followed by the code body.
    """
    doc_line = " ".join(item.doc.split())
    header = f"{item.signature} — {doc_line}" if doc_line else item.signature
    text = f"```{item.language}\n{header}\n{item.body}\n```"
    return PromptSegment(kind="evid", text=text, similarity=similarity)


def _sections(segments: Sequence[PromptSegment]) -> list[str]:
    """Each segment's header, a newline and its text; the prompt joins them with the delimiter."""
    numbers = {"evid": 0, "fb": 0}
    sections = []
    for seg in segments:
        header = SECTION_HEADERS[seg.kind]
        if seg.kind in numbers:
            numbers[seg.kind] += 1
            header = f"{header[:-2]} {numbers[seg.kind]}]]"
        if seg.kind == "evid" and seg.similarity is not None:
            header += f" sim={seg.similarity:.6f}"
        sections.append(f"{header}\n{seg.text}")
    return sections


def _prompt(segments: Sequence[PromptSegment], text: str) -> ComposedPrompt:
    return ComposedPrompt(tuple(segments), text, token_count(text), text_digest(text))


def _build(segments: Sequence[PromptSegment]) -> ComposedPrompt:
    return _prompt(segments, SEGMENT_DELIMITER.join(_sections(segments)))


def single_segment_prompt(text: str) -> ComposedPrompt:
    """Wrap free-form text (e.g. a planning request) as a bare prompt."""
    return _prompt((PromptSegment(kind="task", text=text),), text)


def plan_full_text(plan: "Plan") -> str:
    lines = []
    if plan.contract:
        lines.append(f"contract: {plan.contract}")
    if plan.sketch:
        lines.append(f"sketch: {plan.sketch}")
    if plan.subgoals:
        lines.append("subgoals:")
        lines.extend(f"- {name}: {body}" if body else f"- {name}" for name, body in plan.subgoals)
    return "\n".join(lines) if lines else "(empty plan)"


def plan_headers_text(plan: "Plan") -> str:
    if not plan.subgoals:
        return "(empty plan)"
    return "subgoals: " + "; ".join(name for name, _ in plan.subgoals)


def compose(
    task: str,
    plan: "Plan | None" = None,
    evidence: "RetrievalResult | None" = None,
    feedback_history: Sequence[PromptSegment] = (),
    invariants: str = "",
    environment: str = "",
) -> ComposedPrompt:
    """Compose the enriched prompt from typed segments.

    Order: environment, invariants, task, plan, evidence (retrieval order),
    feedback (chronological). Pure: identical inputs give identical digests.
    """
    if not task.strip():
        raise ValueError("task text must be non-empty")
    segments: list[PromptSegment] = []
    if environment:
        segments.append(PromptSegment(kind="env", text=environment))
    if invariants:
        segments.append(PromptSegment(kind="inv", text=invariants))
    segments.append(PromptSegment(kind="task", text=task))
    if plan is not None:
        segments.append(
            PromptSegment(
                kind="plan",
                text=plan_full_text(plan),
                collapsed_text=plan_headers_text(plan),
            )
        )
    if evidence is not None:
        for item, score in evidence.items:
            segments.append(render(item, similarity=score))
    for fb_segment in feedback_history:
        if fb_segment.kind != "fb":
            raise ValueError("feedback history must contain fb segments")
        segments.append(fb_segment)
    return _build(segments)


def truncate(prompt: ComposedPrompt, max_tokens: int = DEFAULTS["input_cap"]) -> ComposedPrompt:
    """Shrink an over-budget prompt with the stable truncation policy.

    Drop order: evidence ascending by similarity, then collapse the plan to
    subgoal headers, then drop all feedback except the most recent trace.
    Invariants, the task, and the most recent trace are never dropped. Still
    over budget after all steps raises ContextExhaustedError. Applying
    truncate twice yields the first result.
    """
    if prompt.total_tokens <= max_tokens:
        return prompt
    segments = list(prompt.segments)
    # sections are joined by whitespace, so their token counts add up to the prompt's;
    # a numbered header counts the same whatever its number
    sizes = [token_count(section) for section in _sections(segments)]
    excess = prompt.total_tokens - max_tokens
    dropped: set[int] = set()
    # 1. drop evidence, lowest similarity first (ties: later position first)
    evidence = sorted(
        (i for i, seg in enumerate(segments) if seg.kind == "evid"),
        key=lambda i: (float("-inf") if segments[i].similarity is None else segments[i].similarity, -i),
    )
    for i in evidence:
        if excess <= 0:
            break
        dropped.add(i)
        excess -= sizes[i]
    # 2. collapse the plan to subgoal headers only
    if excess > 0:
        for i, seg in enumerate(segments):
            if seg.kind == "plan" and seg.collapsed_text is not None and seg.text != seg.collapsed_text:
                segments[i] = replace(seg, text=seg.collapsed_text)
                excess -= token_count(seg.text) - token_count(seg.collapsed_text)
                break
    # 3. drop all feedback except the most recent failing trace
    if excess > 0:
        dropped.update([i for i, seg in enumerate(segments) if seg.kind == "fb"][:-1])
    current = _build([seg for i, seg in enumerate(segments) if i not in dropped])
    if current.total_tokens > max_tokens:
        raise ContextExhaustedError(
            f"context exhausted: {current.total_tokens} tokens remain after maximal "
            f"truncation against a budget of {max_tokens}"
        )
    return current
