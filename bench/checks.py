"""Outcome checks: each returns a list of problems, empty when the output is right."""

from __future__ import annotations

import numpy as np

# Scores closer than this may be ordered differently by another correct way
# of computing the same cosine (a pre-normalized matrix, another BLAS path).
SCORE_TOLERANCE = 1e-12


def check_task(task, run_log, program: str | None) -> list[str]:
    """Compare a finished run with what the task's generator scripted.

    Verdict kinds only: failure details carry the sandbox's random workspace
    path, so they are not compared.
    """
    problems = []
    verdicts = [
        tuple(r.feedback.verdicts) if r.feedback is not None else None for r in run_log.rounds
    ]
    if verdicts != list(task.verdicts):
        problems.append(f"{task.id}: verdicts {verdicts} != scripted {list(task.verdicts)}")
    outcome = run_log.outcome
    expected = {
        "passed": task.passed,
        "returned_round": task.returned_round,
        "rounds_executed": len(task.verdicts),
    }
    for key, value in expected.items():
        if outcome.get(key) != value:
            problems.append(f"{task.id}: {key} {outcome.get(key)!r} != scripted {value!r}")
    if program != task.programs[task.returned_round]:
        problems.append(f"{task.id}: returned program is not round {task.returned_round}'s")
    return problems


def brute_force_scores(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cosine of ``query`` against every row; zero rows and a zero query score 0."""
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    query_norm = float(np.sqrt(query @ query))
    scores = np.zeros(matrix.shape[0])
    if query_norm == 0.0:
        return scores
    nonzero = norms > 0.0
    scores[nonzero] = (matrix[nonzero] @ query) / (norms[nonzero] * query_norm)
    return scores


def check_top_k(indices: list[int], reported: list[float], scores: np.ndarray, k: int) -> list[str]:
    """``indices`` must be the top ``k`` of ``scores``, by score descending then index ascending.

    ``reported`` are the scores the program returned with ``indices``. Items
    whose scores lie within ``SCORE_TOLERANCE`` may come in either order,
    except that equal reported scores must come in ascending index order.
    """
    n = len(scores)
    expected = np.lexsort((np.arange(n), -scores))[: min(k, n)].tolist()
    if len(indices) != len(expected) or len(set(indices)) != len(indices):
        return [f"top-{k} {indices} != brute force {expected}"]
    problems = []
    if not np.allclose(reported, scores[indices], rtol=0.0, atol=SCORE_TOLERANCE):
        problems.append(f"top-{k} scores {reported} != brute force {scores[indices].tolist()}")
    if indices != expected:
        near = np.allclose(scores[indices], scores[expected], rtol=0.0, atol=SCORE_TOLERANCE)
        ties_ordered = all(
            first < second or a != b
            for first, second, a, b in zip(indices, indices[1:], reported, reported[1:])
        )
        if not (near and ties_ordered):
            problems.append(f"top-{k} {indices} != brute force {expected}")
    return problems


def check_round_trip(saved_digest: str, loaded, expected_items: int) -> list[str]:
    """A reloaded snapshot keeps the saved digest and the generator's item count."""
    problems = []
    if loaded.content_digest != saved_digest:
        problems.append(f"reloaded digest {loaded.content_digest} != saved {saved_digest}")
    if len(loaded) != expected_items:
        problems.append(f"snapshot holds {len(loaded)} items, generator wrote {expected_items}")
    return problems
