"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Oracles here are
independent re-implementations (pure-python scans, greedy reference
filters); they never call the code path they check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest

from arcs.controller import (
    RunDeps,
    TIERS,
    TierConfig,
    best_so_far_trajectory,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from arcs.corpus import CorpusItem, CorpusSnapshot
from arcs.embedding import EmbeddingProvider, HashingEmbedder
from arcs.errors import NoCandidateError
from arcs.evalkit import ablation_matrix
from arcs.evalkit import TaskRecord
from arcs.executor import (
    EXCEPTION,
    TIMEOUT,
    InProcessExecutor,
    ProcessExecutor,
    ResourceCaps,
    encode_feedback,
)
from arcs.executor import TestCase as SuiteCase
from arcs.executor import TestSuite as Suite
from arcs.model import ScriptedModel
from arcs.retrieval import RetrievalQuery, cosine_sim, filter_redundancy, top_k

from helpers import (
    BUGGY_SUM,
    FIXED_SUM,
    buggy_then_fixed_model,
    fenced,
    long_spec,
    make_record,
    snapshot_items,
    sum_suite,
)

SPEC = "Read two integers from one stdin line and print their sum."


# ---------------------------------------------------------------- criteria 1-3


def _random_run(rng: random.Random, snapshot=None, embedder=None):
    iterations = rng.randint(1, 5)
    m = rng.randint(1, 3)
    ids = list(range(1, m + 1))
    suite = Suite(cases=tuple(SuiteCase(i, str(i), str(i)) for i in ids))
    entries = []
    for ordinal in range(iterations):
        if rng.random() < 0.12:
            continue  # this round suffers a hard model failure
        subset = {str(i) for i in ids if rng.random() < 0.6}
        program = f"s = input().strip()\nprint(s if s in {subset!r} else 'x')"
        entries.append({"ordinal": ordinal, "response": fenced(program)})
    with_retrieval = snapshot is not None and rng.random() < 0.5
    tier = TierConfig(k=2 if with_retrieval else 0, iterations=iterations, planning=False)
    deps = RunDeps(
        model=ScriptedModel(entries),
        executor=InProcessExecutor(),
        snapshot=snapshot if with_retrieval else None,
        embedder=embedder if with_retrieval else None,
    )
    try:
        result = run("echo the id fed on stdin", suite, tier, deps)
        return result.log, tier
    except NoCandidateError as exc:
        return exc.run_log, tier


@pytest.fixture(scope="module")
def thousand_runs():
    rng = random.Random(42)
    started = time.perf_counter()
    logs = [_random_run(rng) for _ in range(1000)]
    elapsed = time.perf_counter() - started
    return logs, elapsed


def test_criterion_1_termination(thousand_runs):
    logs, elapsed = thousand_runs
    violations = [
        (log.outcome["rounds_executed"], tier.iterations)
        for log, tier in logs
        if log.outcome["rounds_executed"] > tier.iterations
    ]
    assert violations == []
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 PASS: 1000 randomized runs, all within budget, {elapsed:.1f}s")


def test_criterion_2_monotonic_best_so_far(thousand_runs):
    logs, _ = thousand_runs
    for log, _tier in logs:
        trajectory = best_so_far_trajectory(log)
        assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))
    print("ACCEPTANCE 2 PASS: 1000 pass-count trajectories all non-decreasing")


def test_criterion_3_halting_rule(thousand_runs):
    logs, _ = thousand_runs
    early_returns = 0
    for log, tier in logs:
        if log.outcome["rounds_executed"] < tier.iterations:
            final = log.rounds[-1]
            assert final.feedback is not None
            assert final.feedback.pass_count == len(final.feedback.verdicts)
            early_returns += 1
    print(f"ACCEPTANCE 3 PASS: all {early_returns} early returns carry an all-pass vector")


# ------------------------------------------------------------------ criterion 4


class _PlantedEmbedder(EmbeddingProvider):
    """Returns a preset vector for any text; id-compatible with snapshots."""

    def __init__(self, vector, embedder_id="hash384"):
        self.embedder_id = embedder_id
        self.dimension = len(vector)
        self._vector = [float(x) for x in vector]

    def embed(self, text):
        return list(self._vector)


def _brute_force_top_k(rows, query_vector, k):
    query_norm = math.sqrt(sum(x * x for x in query_vector))
    scores = []
    for row in rows:
        dot = 0.0
        norm_sq = 0.0
        for a, b in zip(query_vector, row):
            dot += a * b
            norm_sq += b * b
        norm = math.sqrt(norm_sq)
        scores.append(0.0 if query_norm == 0.0 or norm == 0.0 else dot / (query_norm * norm))
    order = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    return order[: min(k, len(rows))]


def test_criterion_4_retrieval_oracle_equivalence():
    rng = np.random.default_rng(42)
    py_rng = random.Random(42)
    started = time.perf_counter()
    for corpus_number in range(100):
        n = py_rng.randint(1, 1000)
        matrix = rng.standard_normal((n, 384))
        if n >= 2 and py_rng.random() < 0.3:
            # plant an exact duplicate row to force the index tie-break
            src, dst = py_rng.sample(range(n), 2)
            matrix[dst] = matrix[src]
        records = [make_record(i) for i in range(n)]
        snapshot = CorpusSnapshot.build(records, matrix, "hash384", created_at="2026-01-01T00:00:00+00:00")
        query_vector = [float(x) for x in rng.standard_normal(384)]
        k = py_rng.randint(1, 20)
        result = top_k(
            RetrievalQuery("planted query", k), snapshot, _PlantedEmbedder(query_vector)
        )
        expected = _brute_force_top_k(matrix.tolist(), query_vector, k)
        assert [item.index for item, _ in result.items] == expected, f"corpus {corpus_number}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS: 100 corpora match the brute-force oracle, {elapsed:.1f}s")


# ------------------------------------------------------------------ criterion 5


def _reference_greedy_filter(items, matrix, delta):
    """Independent oracle: survivors by ascending corpus index; item i's vector is row i of ``matrix``."""
    ordered = sorted(items, key=lambda item: item.index)
    survivors = []
    for item in ordered:
        redundant = False
        for kept in survivors:
            dot = sum(a * b for a, b in zip(matrix[item.index], matrix[kept.index]))
            na = math.sqrt(sum(a * a for a in matrix[item.index]))
            nb = math.sqrt(sum(b * b for b in matrix[kept.index]))
            sim = 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)
            if sim > delta:
                redundant = True
                break
        if not redundant:
            survivors.append(item)
    return [item.index for item in survivors]


def _planted_pair_instance(rng: np.random.Generator, py_rng: random.Random):
    dimension = 64
    originals = []
    count = py_rng.randint(3, 10)
    for _ in range(count):
        vector = rng.standard_normal(dimension)
        originals.append(vector / np.linalg.norm(vector))
    vectors = []
    planted = 0
    for vector in originals:
        vectors.append(vector)
        if py_rng.random() < 0.7:
            # construct a duplicate at cosine exactly 0.95
            noise = rng.standard_normal(dimension)
            noise -= noise.dot(vector) * vector
            noise /= np.linalg.norm(noise)
            duplicate = 0.95 * vector + math.sqrt(1 - 0.95**2) * noise
            vectors.append(duplicate)
            planted += 1
    snapshot, items = snapshot_items(vectors)
    py_rng.shuffle(items)
    return snapshot, items, planted


def test_criterion_5_redundancy_filter_oracle():
    rng = np.random.default_rng(7)
    py_rng = random.Random(7)
    total_planted = 0
    for _ in range(30):
        snapshot, items, planted = _planted_pair_instance(rng, py_rng)
        total_planted += planted
        survivors = filter_redundancy(items, snapshot, 0.85)
        assert sorted(item.index for item in survivors) == _reference_greedy_filter(items, snapshot.matrix, 0.85)
        # idempotence
        assert filter_redundancy(survivors, snapshot, 0.85) == survivors
        # delta monotonicity across thresholds clear of every pairwise sim
        survivor_sets = [
            {item.index for item in filter_redundancy(items, snapshot, delta)}
            for delta in (0.7, 0.85, 0.9, 0.97)
        ]
        for tighter, looser in zip(survivor_sets, survivor_sets[1:]):
            assert tighter <= looser
    assert total_planted > 0
    print(f"ACCEPTANCE 5 PASS: filter matches the greedy oracle on 30 instances ({total_planted} planted pairs)")


def test_redundancy_filter_matches_the_oracle_at_the_planted_cosine():
    # similarities that sit on delta: the filter's own arithmetic must not decide them
    rng = np.random.default_rng(11)
    py_rng = random.Random(11)
    for _ in range(30):
        snapshot, items, _ = _planted_pair_instance(rng, py_rng)
        survivors = filter_redundancy(items, snapshot, 0.95)
        assert sorted(item.index for item in survivors) == _reference_greedy_filter(items, snapshot.matrix, 0.95)
    for _ in range(30):
        originals = rng.standard_normal((py_rng.randint(2, 6), 64)) * py_rng.uniform(0.1, 10.0)
        snapshot, items = snapshot_items([originals[i % len(originals)] for i in range(12)])
        survivors = filter_redundancy(items, snapshot, 1.0)
        assert sorted(item.index for item in survivors) == _reference_greedy_filter(items, snapshot.matrix, 1.0)


# ------------------------------------------------------------------ criterion 6


def test_criterion_6_repair_loop_efficacy():
    suite = sum_suite()
    executor = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0))
    with_feedback = run(
        SPEC,
        suite,
        TierConfig(k=0, iterations=5, planning=False),
        RunDeps(model=buggy_then_fixed_model(), executor=executor),
    )
    assert with_feedback.log.outcome["passed"] is True
    assert with_feedback.log.outcome["returned_round"] == 1

    without_feedback = run(
        SPEC,
        suite,
        TIERS["small"],
        RunDeps(model=buggy_then_fixed_model(), executor=executor),
    )
    assert without_feedback.log.outcome["passed"] is False

    # ablation sweep on an engineered set where only repair can succeed
    tasks = [
        TaskRecord(id=f"fix-{i}", spec=f"fix-{i}: {SPEC}", suite=sum_suite())
        for i in range(3)
    ]
    entries = [
        {"feedback": False, "response": fenced(BUGGY_SUM)},
        {"feedback": True, "response": fenced(FIXED_SUM)},
    ]

    def deps():
        return RunDeps(model=ScriptedModel(entries), executor=InProcessExecutor())

    rows = dict(ablation_matrix(tasks, deps(), toggles=("feedback",)))
    assert rows["+feedback"].pass_at_1 > rows["baseline"].pass_at_1
    assert rows["+feedback"].pass_at_1 == 1.0
    assert rows["baseline"].pass_at_1 == 0.0
    print("ACCEPTANCE 6 PASS: repair passes at t=1; feedback-on pass@1 1.0 > feedback-off 0.0")


# ------------------------------------------------------------------ criterion 7


def test_criterion_7_tier_projection(snapshot, embedder):
    suite = sum_suite()
    executor = ProcessExecutor()
    small = run(
        SPEC,
        suite,
        TIERS["small"],
        RunDeps(model=buggy_then_fixed_model(), executor=executor),
    )
    projected = run(
        SPEC,
        suite,
        TierConfig(k=0, iterations=1, planning=False),
        RunDeps(
            model=buggy_then_fixed_model(),
            executor=executor,
            snapshot=snapshot,
            embedder=embedder,
        ),
    )
    differences = compare_run_logs(small.log, projected.log)
    assert differences == []
    small_bytes = json.dumps(small.log.to_jsonable(include_timing=False), sort_keys=True)
    projected_bytes = json.dumps(projected.log.to_jsonable(include_timing=False), sort_keys=True)
    assert small_bytes == projected_bytes
    print("ACCEPTANCE 7 PASS: projected large-tier log is byte-identical to the small tier")


# ------------------------------------------------------------------ criterion 8


def test_criterion_8_cost_bound():
    deps = RunDeps(model=buggy_then_fixed_model(), executor=InProcessExecutor())
    reference = run(SPEC, sum_suite(), TierConfig(k=0, iterations=1), deps).log
    # read at B=5, k=10 and m=3 tests
    reference = dataclasses.replace(reference, tier=TierConfig(k=10, iterations=5))
    assert reference.cost_bound == 30.0

    embedder = HashingEmbedder(16)
    texts = [f"helper routine number {i}" for i in range(6)]
    snapshot = CorpusSnapshot.build(
        [make_record(i) for i in range(len(texts))],
        [embedder.embed(t) for t in texts],
        embedder.embedder_id,
        created_at="2026-01-01T00:00:00+00:00",
    )
    rng = random.Random(1234)
    for _ in range(200):
        log, _tier = _random_run(rng, snapshot=snapshot, embedder=embedder)
        assert log.cost.total <= log.cost_bound, (log.cost.total, log.cost_bound)
    print("ACCEPTANCE 8 PASS: bound equals 30 under unit costs; 200 random runs stay within bound")


# ------------------------------------------------------------------ criterion 9


def _replay_case(tier, spec, snapshot=None, embedder=None, tmp_path=None, name=""):
    executor = ProcessExecutor()
    deps = RunDeps(
        model=buggy_then_fixed_model(),
        executor=executor,
        snapshot=snapshot,
        embedder=embedder,
    )
    result = run(spec, sum_suite(), tier, deps)
    directory = save_run_log(result.log, tmp_path / name)
    loaded = load_run_log(directory)
    fresh = replay(loaded, deps)
    differences = compare_run_logs(loaded, fresh)
    assert differences == [], differences
    original_bytes = json.dumps(loaded.to_jsonable(include_timing=False), sort_keys=True)
    fresh_bytes = json.dumps(fresh.to_jsonable(include_timing=False), sort_keys=True)
    assert original_bytes == fresh_bytes


def test_criterion_9_replay_fidelity(snapshot, embedder, tmp_path):
    _replay_case(TIERS["small"], SPEC, tmp_path=tmp_path, name="small")
    _replay_case(TIERS["medium"], long_spec(SPEC), tmp_path=tmp_path, name="medium")
    _replay_case(
        TierConfig.large(k=3, iterations=3),
        long_spec(SPEC),
        snapshot=snapshot,
        embedder=embedder,
        tmp_path=tmp_path,
        name="large",
    )
    print("ACCEPTANCE 9 PASS: small, medium, and large replays are field-identical")


# ----------------------------------------------------------------- criterion 10


def test_criterion_10_executor_caps():
    executor = ProcessExecutor()  # default caps: 10s wall, 4GiB
    suite = Suite(cases=(SuiteCase(1, "spin", "never"),))
    started = time.perf_counter()
    feedback = executor.execute("while True:\n    pass", suite)
    elapsed = time.perf_counter() - started
    assert feedback.verdicts == (TIMEOUT,)
    assert elapsed <= 10.0 + 1.0

    raiser = "\n".join(
        [f"def f{i}():\n    return f{i + 1}()" for i in range(14)]
        + ["def f14():\n    raise ValueError('boom')", "f0()"]
    )
    feedback = executor.execute(raiser, Suite(cases=(SuiteCase(1, "", "never"),)))
    assert feedback.verdicts == (EXCEPTION,)
    assert feedback.failures[0].kind == "ValueError"
    encoded = encode_feedback(feedback, max_stack_lines=10)
    stack_lines = [line for line in encoded.text.splitlines() if line.startswith("  ")]
    assert len(stack_lines) == 10
    assert len(feedback.failures[0].detail_lines) > 10
    print(f"ACCEPTANCE 10 PASS: timeout at {elapsed:.1f}s (cap 10s+1s grace); 10 stack lines encoded")
