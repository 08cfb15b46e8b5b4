"""Spans recorded from outside the package, around its public calls.

A traced run passes delegating adapters (executor, model, embedder) through
``RunDeps`` and swaps the module-level functions that the controller and
``plan_conditioned_retrieve`` look up at call time. Spans are
kept in memory and written when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

from arcs import planner, prompting, retrieval
from arcs.embedding import EmbeddingProvider
from arcs.executor import Executor
from arcs.model import ProposalModel

# Module attributes timed in the traced run: (module, attribute, span name).
PATCHED = (
    (retrieval, "refresh", "retrieval.refresh"),
    (retrieval, "top_k", "retrieval.top_k"),
    (retrieval, "filter_redundancy", "retrieval.filter"),
    (planner, "plan", "planner.plan"),
    (prompting, "compose", "prompting.compose"),
    (prompting, "truncate", "prompting.truncate"),
)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process.

    Each span is ``[name, start, end, parent, task, info]``; ``parent`` is
    the index of the enclosing span or -1, ``task`` the id shared by all
    spans of one ``run()`` (None outside tasks), and ``info`` a small dict of counts observed at
    the boundary (tests run, verdicts, tokens, items kept).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.task: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.task, {}]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, function, observe=None):
        """``function`` timed under ``name``; ``observe(info, args, result)`` adds counts."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as info:
                result = function(*args, **kwargs)
                if observe is not None:
                    observe(info, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Swap the module attributes in ``PATCHED`` for timed wrappers."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHED]
        try:
            for module, attr, name in PATCHED:
                setattr(module, attr, self.wrap(name, getattr(module, attr), OBSERVERS.get(name)))
            yield
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "task", "info")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")


def _observe_filter(info, args, result):
    info["in"] = len(args[0])
    info["kept"] = len(result)


def _observe_truncate(info, args, result):
    before = args[0]
    info["tokens"] = result.total_tokens
    info["truncated"] = result is not before
    info["dropped"] = len(before.segments) - len(result.segments)


def _observe_plan(info, args, result):
    info["gated"] = result is None


OBSERVERS = {
    "retrieval.filter": _observe_filter,
    "prompting.truncate": _observe_truncate,
    "planner.plan": _observe_plan,
}


class TracedExecutor(Executor):
    def __init__(self, inner: Executor, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def environment_description(self) -> str:
        return self.inner.environment_description()

    def execute(self, program, suite):
        with self.tracer.span("executor.execute") as info:
            feedback = self.inner.execute(program, suite)
            info["tests"] = len(feedback.verdicts)
            info["verdicts"] = list(feedback.verdicts)
        return feedback


class TracedModel(ProposalModel):
    def __init__(self, inner: ProposalModel, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.model_id = inner.model_id

    @property
    def script_digest(self):
        return getattr(self.inner, "script_digest", None)

    def reset(self) -> None:
        self.inner.reset()

    def propose(self, prompt, params):
        with self.tracer.span("model.propose") as info:
            text, usage = self.inner.propose(prompt, params)
            info["input_tokens"] = usage.input_tokens
            info["output_tokens"] = usage.output_tokens
        return text, usage


class TracedEmbedder(EmbeddingProvider):
    def __init__(self, inner: EmbeddingProvider, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.embedder_id = inner.embedder_id
        self.dimension = inner.dimension

    def embed(self, text):
        with self.tracer.span("embedding.embed") as info:
            info["chars"] = len(text)
            return self.inner.embed(text)
