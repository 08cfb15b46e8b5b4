"""Shared fixture builders for the test suite."""

from __future__ import annotations

import math

from arcs.corpus import CorpusItem, CorpusSnapshot
from arcs.executor import TestCase, TestSuite
from arcs.model import ProposalModel, ScriptedModel

PLAN_ANSWER = (
    "CONTRACT: reads two integers from stdin, writes one integer to stdout\n"
    "SKETCH: parse, add, print\n"
    "SUBGOALS:\n"
    "- parse input: split stdin into integers\n"
    "- compute sum: add the two values\n"
)

BUGGY_SUM = "a, b = map(int, input().split())\nprint(a - b)"
FIXED_SUM = "a, b = map(int, input().split())\nprint(a + b)"


def fenced(code: str) -> str:
    return f"```python\n{code}\n```"


def sum_suite() -> TestSuite:
    return TestSuite(
        cases=(
            TestCase(1, "1 2", "3"),
            TestCase(2, "2 2", "4"),
            TestCase(3, "10 5", "15"),
        )
    )


def make_suite(*pairs: tuple[str, str], compare: str = "trim") -> TestSuite:
    return TestSuite(
        cases=tuple(
            TestCase(i + 1, given, expected) for i, (given, expected) in enumerate(pairs)
        ),
        compare=compare,
    )


def buggy_then_fixed_model(buggy: str = BUGGY_SUM, fixed: str = FIXED_SUM) -> ScriptedModel:
    """Answers planning prompts, then buggy without feedback, fixed with it."""
    return ScriptedModel(
        [
            {"needles": ["[[PLANNING]]"], "response": PLAN_ANSWER},
            {"feedback": False, "response": fenced(buggy)},
            {"feedback": True, "response": fenced(fixed)},
        ]
    )


class CountingModel(ProposalModel):
    """Wraps a model and counts its calls that returned an answer."""

    def __init__(self, inner: ProposalModel):
        self.inner = inner
        self.model_id = inner.model_id
        self.returned = 0

    def propose(self, prompt, params):
        answer = self.inner.propose(prompt, params)
        self.returned += 1
        return answer


def constant_model(code: str) -> ScriptedModel:
    return ScriptedModel([{"response": fenced(code)}])


def unit_vector(dimension: int, axis: int) -> tuple[float, ...]:
    vector = [0.0] * dimension
    vector[axis] = 1.0
    return tuple(vector)


def normalized(values) -> tuple[float, ...]:
    norm = math.sqrt(sum(v * v for v in values))
    return tuple(v / norm for v in values)


def make_record(index: int, signature: str = "", doc: str = "") -> dict:
    """The metadata of a fixture item: a record for ``CorpusSnapshot.build``."""
    return {
        "index": index,
        "signature": signature or f"item_{index}()",
        "doc": doc,
        "body": f"def item_{index}():\n    pass",
        "source_path": "fixture.py",
        "language": "python",
    }


def make_item(index: int, embedding, signature: str = "", doc: str = "") -> CorpusItem:
    return CorpusItem(**make_record(index, signature, doc), embedding=tuple(float(x) for x in embedding))


def snapshot_from_embeddings(embeddings, embedder_id: str = "hash384") -> CorpusSnapshot:
    records = [make_record(i) for i in range(len(embeddings))]
    return CorpusSnapshot.build(records, embeddings, embedder_id, created_at="2026-01-01T00:00:00+00:00")


def snapshot_items(embeddings) -> tuple[CorpusSnapshot, list[CorpusItem]]:
    """The snapshot of ``embeddings`` and its items. A snapshot holds at least one
    item, so no embeddings give a one-row snapshot and no items."""
    snapshot = snapshot_from_embeddings(embeddings if len(embeddings) else [(0.0,)])
    return snapshot, list(snapshot.items)[: len(embeddings)]


LONG_TASK_PAD = " ".join(f"detail{i}" for i in range(130))


def long_spec(core: str) -> str:
    """A task spec padded past the 120-token planning gate."""
    return f"{core}\n{LONG_TASK_PAD}"
