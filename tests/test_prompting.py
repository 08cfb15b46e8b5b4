from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs.errors import ContextExhaustedError
from arcs.planner import Plan
from arcs.prompting import (
    FEEDBACK_MARKER,
    PromptSegment,
    _build,
    compose,
    render,
    template_fingerprint,
    truncate,
)
from arcs.retrieval import RetrievalResult

from helpers import make_item, unit_vector

GOLDEN_RENDER = """```python
scale(values, factor) — Multiply every value.
def scale(values, factor):
    return [v * factor for v in values]
```"""


def _fixture_item():
    item = make_item(0, unit_vector(4, 0), signature="scale(values, factor)", doc="Multiply every value.")
    return replace(
        item, body="def scale(values, factor):\n    return [v * factor for v in values]", language="python"
    )


def test_render_matches_golden_text():
    assert render(_fixture_item()).text == GOLDEN_RENDER


def test_render_elides_empty_doc():
    item = make_item(0, unit_vector(4, 0), signature="f(x)", doc="")
    first_line = render(item).text.splitlines()[1]
    assert first_line == "f(x)"


def test_render_is_deterministic():
    item = _fixture_item()
    assert render(item).text == render(item).text


def _evidence(*scored_items) -> RetrievalResult:
    return RetrievalResult(items=tuple(scored_items), query_digest="q", snapshot_digest="s")


def test_compose_minimal_is_env_inv_task():
    prompt = compose(task="do the thing", invariants="io contract", environment="runtime env")
    kinds = [seg.kind for seg in prompt.segments]
    assert kinds == ["env", "inv", "task"]
    assert prompt.text.index("[[ENVIRONMENT]]") < prompt.text.index("[[INVARIANTS]]") < prompt.text.index("[[TASK]]")


def test_compose_orders_evidence_by_retrieval_order():
    items = [
        (make_item(3, unit_vector(4, 0)), 0.9),
        (make_item(1, unit_vector(4, 1)), 0.8),
        (make_item(2, unit_vector(4, 2)), 0.7),
    ]
    prompt = compose(task="t", evidence=_evidence(*items))
    evid = [seg for seg in prompt.segments if seg.kind == "evid"]
    assert [seg.similarity for seg in evid] == [0.9, 0.8, 0.7]
    assert "[[EVIDENCE 1]] sim=0.900000" in prompt.text
    assert "[[EVIDENCE 3]] sim=0.700000" in prompt.text


def test_compose_orders_feedback_chronologically():
    first = PromptSegment(kind="fb", text="round one failures")
    second = PromptSegment(kind="fb", text="round two failures")
    prompt = compose(task="t", feedback_history=[first, second])
    assert prompt.text.index("round one failures") < prompt.text.index("round two failures")
    assert "[[FEEDBACK 1]]" in prompt.text and "[[FEEDBACK 2]]" in prompt.text
    assert FEEDBACK_MARKER in prompt.text


def test_compose_is_pure():
    plan = Plan(contract="c", sketch="s", subgoals=(("a", "b"),))
    first = compose(task="t", plan=plan, invariants="i", environment="e")
    second = compose(task="t", plan=plan, invariants="i", environment="e")
    assert first.digest == second.digest
    assert first.text == second.text


def test_truncate_noop_under_budget():
    prompt = compose(task="small task")
    assert truncate(prompt, 100) is prompt


def _count_tokens_of(segment_text):
    return len(segment_text.split())


def test_truncate_drops_lowest_similarity_evidence_first():
    items = [
        (make_item(0, unit_vector(4, 0), doc="d"), 0.9),
        (make_item(1, unit_vector(4, 1), doc="d"), 0.8),
        (make_item(2, unit_vector(4, 2), doc="d"), 0.7),
    ]
    full = compose(task="the task", evidence=_evidence(*items))
    # budget that forces exactly one drop
    target = full.total_tokens - 1
    shrunk = truncate(full, target)
    sims = [seg.similarity for seg in shrunk.segments if seg.kind == "evid"]
    assert sims == [0.9, 0.8]


def test_truncate_collapses_plan_then_drops_old_feedback():
    plan = Plan(
        contract="takes a list of ints and returns their maximum value",
        sketch="iterate keeping the best seen so far then print it",
        subgoals=(("parse", "read the list"), ("select", "keep the max")),
    )
    old_fb = PromptSegment(kind="fb", text="old trace " + "x " * 30)
    new_fb = PromptSegment(kind="fb", text="latest failing trace")
    full = compose(task="the task", plan=plan, feedback_history=[old_fb, new_fb], invariants="inv")
    # squeeze until only collapse + feedback-drop can satisfy the budget
    kept_tokens = truncate(full, 30)
    kinds = [seg.kind for seg in kept_tokens.segments]
    assert "inv" in kinds and "task" in kinds
    fb_segments = [seg for seg in kept_tokens.segments if seg.kind == "fb"]
    assert len(fb_segments) == 1
    assert fb_segments[0].text == "latest failing trace"
    plan_segment = next(seg for seg in kept_tokens.segments if seg.kind == "plan")
    assert plan_segment.text == "subgoals: parse; select"


def test_truncate_never_drops_protected_segments():
    new_fb = PromptSegment(kind="fb", text="only trace")
    full = compose(task="task", feedback_history=[new_fb], invariants="inv", environment="env")
    with pytest.raises(ContextExhaustedError):
        truncate(full, 2)


def test_truncate_is_stable():
    items = [(make_item(i, unit_vector(4, i % 4), doc="d"), 0.9 - i * 0.1) for i in range(3)]
    plan = Plan(contract="c" * 5, sketch="s", subgoals=(("a", "body"),))
    full = compose(task="the task", plan=plan, evidence=_evidence(*items))
    once = truncate(full, full.total_tokens - 3)
    twice = truncate(once, full.total_tokens - 3)
    assert twice == once


def test_template_fingerprint_shape():
    fp = template_fingerprint()
    assert fp["version"] == "v1"
    assert len(fp["digest"]) == 64


def _rebuild_loop_truncate(prompt, max_tokens):
    """Reference policy: rebuild the whole prompt after every step."""
    if prompt.total_tokens <= max_tokens:
        return prompt
    segments = list(prompt.segments)
    current = prompt
    while current.total_tokens > max_tokens:
        evid_positions = [i for i, seg in enumerate(segments) if seg.kind == "evid"]
        if not evid_positions:
            break
        victim = min(
            evid_positions,
            key=lambda i: (
                segments[i].similarity if segments[i].similarity is not None else float("-inf"),
                -i,
            ),
        )
        del segments[victim]
        current = _build(segments)
    if current.total_tokens > max_tokens:
        for i, seg in enumerate(segments):
            if seg.kind == "plan" and seg.collapsed_text is not None and seg.text != seg.collapsed_text:
                segments[i] = replace(seg, text=seg.collapsed_text)
                current = _build(segments)
                break
    if current.total_tokens > max_tokens:
        fb_positions = [i for i, seg in enumerate(segments) if seg.kind == "fb"]
        if len(fb_positions) > 1:
            for i in reversed(fb_positions[:-1]):
                del segments[i]
            current = _build(segments)
    if current.total_tokens > max_tokens:
        raise ContextExhaustedError(
            f"context exhausted: {current.total_tokens} tokens remain after maximal "
            f"truncation against a budget of {max_tokens}"
        )
    return current


_texts = st.text(alphabet="ab \n", max_size=12)


@st.composite
def _prompts(draw):
    segments = [PromptSegment(kind=kind, text=draw(_texts)) for kind in ("env", "inv") if draw(st.booleans())]
    segments.append(PromptSegment(kind="task", text=draw(_texts)))
    if draw(st.booleans()):
        text = draw(_texts)
        collapsed = draw(st.one_of(st.none(), st.just(text), _texts))
        segments.append(PromptSegment(kind="plan", text=text, collapsed_text=collapsed))
    similarities = st.one_of(st.none(), st.sampled_from([float("-inf"), 0.25, 0.5, 0.75]))
    for _ in range(draw(st.integers(0, 5))):
        segments.append(PromptSegment(kind="evid", text=draw(_texts), similarity=draw(similarities)))
    for _ in range(draw(st.integers(0, 4))):
        segments.append(PromptSegment(kind="fb", text=draw(_texts)))
    return _build(segments)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_truncate_matches_the_rebuild_loop(data):
    prompt = data.draw(_prompts())
    budget = data.draw(st.integers(0, prompt.total_tokens + 2))
    try:
        expected = _rebuild_loop_truncate(prompt, budget)
    except ContextExhaustedError as exc:
        with pytest.raises(ContextExhaustedError) as raised:
            truncate(prompt, budget)
        assert str(raised.value) == str(exc)
        return
    result = truncate(prompt, budget)
    assert result == expected
    assert (result is prompt) == (budget >= prompt.total_tokens)
