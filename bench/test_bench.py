"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each check must accept the program's real output and flag an injected
wrong verdict, outcome, index or digest.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from arcs import controller, corpus, executor, retrieval  # noqa: E402
from arcs.embedding import HashingEmbedder  # noqa: E402
from arcs.model import ScriptedModel  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from spans import TracedEmbedder, TracedExecutor, TracedModel, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    paths = gen.write_source_tree(root, seed=7, definitions=60, median_lines=4.0)
    return corpus.ingest(paths, HashingEmbedder())


def _run(task, snapshot, tracer=None):
    cases = tuple(executor.TestCase(c.id, c.input, c.expected) for c in task.cases)
    model = ScriptedModel(list(task.script))
    sandbox, embedder = executor.InProcessExecutor(), HashingEmbedder()
    if tracer is not None:
        model = TracedModel(model, tracer)
        sandbox = TracedExecutor(sandbox, tracer)
        embedder = TracedEmbedder(embedder, tracer)
    deps = controller.RunDeps(model=model, executor=sandbox, snapshot=snapshot, embedder=embedder)
    suite = executor.TestSuite(cases=cases)
    result = controller.run(task.spec, suite, controller.TierConfig.large(iterations=5), deps)
    return result.log, result.program


def _task_of_shape(seed, shape):
    return next(t for t in gen.task_cycle(random.Random(seed), 0, 3, 0, 5) if t.shape == shape)


def test_generated_tree_has_the_requested_definitions(tmp_path):
    paths = gen.write_source_tree(tmp_path, seed=3, definitions=1000, median_lines=2.0)
    assert {Path(p).suffix for p in paths} == {".py", ".c", ".java"}
    assert len(corpus.ingest(paths, HashingEmbedder())) == 1000


def test_every_shape_runs_as_scripted(snapshot):
    tasks = gen.task_cycle(random.Random(5), 0, tests=3, big_tests=1, budget=5)
    assert {task.shape for task in tasks} == {name for name, _ in gen.SHAPES}
    for task in tasks:
        run_log, program = _run(task, snapshot)
        assert checks.check_task(task, run_log, program) == [], task.id


def test_check_task_flags_a_wrong_verdict_and_outcome(snapshot):
    task = _task_of_shape(9, "wrong_then_fix")
    run_log, program = _run(task, snapshot)
    first = run_log.rounds[0]
    flipped = ("exception",) + first.feedback.verdicts[1:]
    bad_feedback = dataclasses.replace(first.feedback, verdicts=flipped)
    bad_round = dataclasses.replace(first, feedback=bad_feedback)
    bad_log = dataclasses.replace(run_log, rounds=[bad_round, *run_log.rounds[1:]])
    assert any("verdicts" in p for p in checks.check_task(task, bad_log, program))

    bad_outcome = dataclasses.replace(run_log, outcome={**run_log.outcome, "returned_round": 0})
    assert any("returned_round" in p for p in checks.check_task(task, bad_outcome, program))
    assert checks.check_task(task, run_log, task.programs[0])


def test_check_top_k_flags_a_wrong_index_and_tie_order(snapshot):
    embedder = HashingEmbedder()
    matrix = np.array([item.embedding for item in snapshot.items])
    for text in ("parse input line", "sort table rows"):
        result = retrieval.top_k(retrieval.RetrievalQuery(text, 5), snapshot, embedder)
        scores = checks.brute_force_scores(matrix, np.array(embedder.embed(text)))
        indices, reported = result.indices(), result.scores()
        assert checks.check_top_k(indices, reported, scores, 5) == []
        outsider = next(i for i in np.argsort(scores) if i not in indices)
        wrong = indices[:-1] + [int(outsider)]
        assert checks.check_top_k(wrong, reported[:-1] + [float(scores[outsider])], scores, 5)

    tied = np.array([0.5, 0.9, 0.9, 0.1])
    assert checks.check_top_k([1, 2], [0.9, 0.9], tied, 2) == []
    assert checks.check_top_k([2, 1], [0.9, 0.9], tied, 2)


def test_check_round_trip_flags_a_changed_digest_or_count(snapshot, tmp_path):
    path = tmp_path / "s.snapshot"
    corpus.save_snapshot(snapshot, path)
    loaded = corpus.load_snapshot(path)
    digest = snapshot.content_digest
    assert checks.check_round_trip(digest, loaded, len(snapshot)) == []
    assert checks.check_round_trip(digest, loaded, len(snapshot) + 1)
    tampered = dataclasses.replace(loaded, content_digest="0" * 64)
    assert checks.check_round_trip(digest, tampered, len(snapshot))


def test_traced_run_records_nested_spans_and_restores_functions(snapshot):
    names = ("refresh", "top_k", "filter_redundancy")
    originals = {name: getattr(retrieval, name) for name in names}
    tracer = Tracer()
    task = _task_of_shape(2, "exception_then_fix")
    tracer.task = task.id
    with tracer.patched(), tracer.span("controller.run"):
        run_log, program = _run(task, snapshot, tracer)
    assert checks.check_task(task, run_log, program) == []
    assert {name: getattr(retrieval, name) for name in originals} == originals

    names = [record[0] for record in tracer.spans]
    assert names.count("executor.execute") == 2 and names.count("planner.plan") == 2
    assert names.count("retrieval.top_k") == 8 and "embedding.embed" in names
    assert all(record[4] == task.id for record in tracer.spans)
    own = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert all(value >= 0 for value in own)
    assert sum(own) == pytest.approx(total)
