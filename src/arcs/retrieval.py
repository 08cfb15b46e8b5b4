"""Deterministic cosine top-k retrieval over a frozen snapshot.

All operations are pure functions of (query text, snapshot digest,
parameters). Ties are broken by ascending corpus index everywhere so that
results replay bit-exactly. Exact full scan, no approximate index: at desk
scale it is fast enough and removes a nondeterminism source.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .config import DEFAULTS, read_input_file
from .corpus import CorpusItem, CorpusSnapshot, finite_norms
from .embedding import EmbeddingProvider
from .errors import DimensionMismatchError, EmbedderMismatchError
from .util import json_digest

if TYPE_CHECKING:
    from .planner import Plan

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RetrievalQuery:
    """A query string plus its retrieval budget."""

    text: str
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("retrieval budget k must be >= 1")
        if not self.text:
            raise ValueError("query text must be non-empty")


@dataclass(frozen=True)
class RetrievalResult:
    """Scored items in retrieval order plus provenance digests."""

    items: tuple[tuple[CorpusItem, float], ...]
    query_digest: str
    snapshot_digest: str

    def indices(self) -> list[int]:
        return [item.index for item, _ in self.items]

    def scores(self) -> list[float]:
        return [score for _, score in self.items]

    def to_jsonable(self) -> dict:
        return {
            "query_digest": self.query_digest,
            "snapshot_digest": self.snapshot_digest,
            "indices": self.indices(),
            "scores": self.scores(),
        }


def cosine_sim(v1: Sequence[float], v2: Sequence[float]) -> float:
    """Cosine similarity in [-1, 1]; zero vectors compare as 0, non-finite norms raise ValueError."""
    if len(v1) != len(v2):
        raise DimensionMismatchError(f"cosine over dimensions {len(v1)} and {len(v2)}")
    a, b = np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64)
    finite_norms(np.stack([a, b]), ("v1", "v2").__getitem__)
    if not ((a * a).any() and (b * b).any()):
        log.warning("cosine similarity against a zero vector; defining it as 0.0")
    return float(_cosines(a[np.newaxis], b)[0])


def _cosines(rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine of each of ``rows`` with ``vector``; a zero norm gives 0.

    Every sum starts at 0.0 and adds its products in coordinate order, as a
    plain loop does, so a pair gets the same bits wherever it is compared.
    """
    terms = np.zeros((3, len(rows), rows.shape[1] + 1))
    terms[0, :, 1:] = rows * vector
    terms[1, :, 1:] = rows * rows
    terms[2, :, 1:] = vector * vector
    dot, n1, n2 = np.cumsum(terms, axis=-1)[..., -1]
    cosines = np.zeros(len(rows))
    nonzero = (n1 != 0.0) & (n2 != 0.0)
    cosines[nonzero] = dot[nonzero] / (np.sqrt(n1[nonzero]) * np.sqrt(n2[nonzero]))
    return cosines


def _score_all(snapshot: CorpusSnapshot, query_vector: Sequence[float]) -> np.ndarray:
    matrix, norms = snapshot.matrix, snapshot.norms
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(
            f"query dimension {q.shape[0]} does not match snapshot dimension {matrix.shape[1]}"
        )
    finite_norms(q[np.newaxis], lambda _: "the query vector")
    qnorm = math.sqrt(float(q @ q))
    if qnorm == 0.0:
        log.warning("query embedded to the zero vector; all scores are 0")
        return np.zeros(len(snapshot.items), dtype=np.float64)
    raw = matrix @ q
    scores = np.zeros(len(snapshot.items), dtype=np.float64)
    nonzero = norms > 0.0
    scores[nonzero] = raw[nonzero] / (norms[nonzero] * qnorm)
    return scores


def load_denylist(path: str | Path) -> frozenset[str]:
    """One denylisted identifier per line; blank lines and # comments skipped."""
    entries = set()
    for line in read_input_file(path, "denylist").splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            entries.add(stripped)
    return frozenset(entries)


def signature_name(signature: str) -> str:
    """Leading identifier of a signature, used for denylist matching."""
    name = ""
    head = signature.split("(", 1)[0]
    for token in reversed(head.replace("*", " ").replace("&", " ").split()):
        if token and (token[0].isalpha() or token[0] == "_"):
            name = token
            break
    return name.split("::")[-1].split(".")[-1]


def top_k(
    query: RetrievalQuery,
    snapshot: CorpusSnapshot,
    embedder: EmbeddingProvider,
    denylist: frozenset[str] | None = None,
) -> RetrievalResult:
    """Exact top-k scan: score descending, ties by ascending corpus index.

    Items are read in that order and an item whose ``signature_name`` is in
    ``denylist`` is skipped, so each denylisted item ranked above the k-th one
    kept costs one more item read.
    """
    if embedder.embedder_id != snapshot.embedder_id:
        raise EmbedderMismatchError(
            f"snapshot was embedded with {snapshot.embedder_id!r}, query uses {embedder.embedder_id!r}"
        )
    scores = _score_all(snapshot, embedder.embed(query.text))
    items: list[tuple[CorpusItem, float]] = []
    for i in _ranking(scores, min(query.k, len(scores))):
        item = snapshot.items[i]
        if not denylist or signature_name(item.signature) not in denylist:
            items.append((item, float(scores[i])))
            if len(items) == query.k:
                break
    return RetrievalResult(
        items=tuple(items),
        query_digest=json_digest({"kind": "topk", "text": query.text, "k": query.k}),
        snapshot_digest=snapshot.content_digest,
    )


def _ranking(scores: np.ndarray, size: int) -> Iterator[int]:
    """Every index of ``scores`` by score descending, then index ascending. Only the
    indices scoring at least the ``size``-th best are sorted, so ties at that boundary
    stay, and ``size`` doubles each time the walk passes them."""
    walked = 0
    while True:
        pool = np.flatnonzero(scores >= np.partition(scores, -size)[-size])
        yield from pool[np.lexsort((pool, -scores[pool]))][walked:].tolist()
        if size == len(scores):
            return
        walked, size = len(pool), min(2 * size, len(scores))


def filter_redundancy(
    items: Sequence[CorpusItem], snapshot: CorpusSnapshot, delta: float = DEFAULTS["delta"]
) -> list[CorpusItem]:
    """Drop items whose similarity to a surviving earlier-index item exceeds delta.

    Each item's vector is row ``item.index`` of ``snapshot.matrix``, which
    holds no non-finite row. Survivors are decided by a greedy scan in
    ascending corpus-index order; the input's relative order is preserved in
    the output. The earliest-index item always survives. Each candidate is
    compared with the survivors so far in ``cosine_sim``'s arithmetic.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    scan_order = sorted(range(len(items)), key=lambda p: (items[p].index, p))
    vectors = snapshot.matrix[[item.index for item in items]]
    kept: list[int] = []
    for position in scan_order:
        if not (_cosines(vectors[kept], vectors[position]) > delta).any():
            kept.append(position)
    return [items[p] for p in sorted(kept)]


def plan_conditioned_retrieve(
    subgoals: Sequence[str],
    k_total: int,
    snapshot: CorpusSnapshot,
    embedder: EmbeddingProvider,
    delta: float = DEFAULTS["delta"],
    denylist: frozenset[str] | None = None,
) -> RetrievalResult:
    """Per-subgoal retrieval with ceil-split budgets, union, and filtering.

    Each non-empty subgoal gets budget ceil(k_total / n); results are
    deduplicated by corpus index keeping the best score, redundancy-filtered,
    and ordered by best score (ties by ascending index).
    """
    active = [s for s in subgoals if s.strip()]
    skipped = len(subgoals) - len(active)
    if skipped:
        log.warning("skipping %d empty subgoal string(s)", skipped)
    if not active:
        raise ValueError("at least one non-empty subgoal required")
    per_subgoal = math.ceil(k_total / len(active))
    best: dict[int, float] = {}
    by_index: dict[int, CorpusItem] = {}
    for subgoal in active:
        result = top_k(RetrievalQuery(subgoal, per_subgoal), snapshot, embedder, denylist)
        for item, score in result.items:
            if item.index not in best or score > best[item.index]:
                best[item.index] = score
            by_index[item.index] = item
    candidates = [by_index[i] for i in sorted(by_index)]
    survivors = filter_redundancy(candidates, snapshot, delta)
    ordered = sorted(survivors, key=lambda item: (-best[item.index], item.index))
    return RetrievalResult(
        items=tuple((item, best[item.index]) for item in ordered),
        query_digest=json_digest({"kind": "plan", "subgoals": active, "k_total": k_total}),
        snapshot_digest=snapshot.content_digest,
    )


def refresh(
    q_next: str,
    plan_next: "Plan | None",
    k: int,
    snapshot: CorpusSnapshot,
    embedder: EmbeddingProvider,
    delta: float = DEFAULTS["delta"],
    denylist: frozenset[str] | None = None,
) -> RetrievalResult:
    """Re-retrieve evidence for the updated query; replaces the evidence set.

    Dispatches to plain top-k when no plan (or an empty plan) is present,
    otherwise to plan-conditioned retrieval over the subgoal names.
    """
    if plan_next is None or not plan_next.subgoals:
        return top_k(RetrievalQuery(q_next, k), snapshot, embedder, denylist)
    return plan_conditioned_retrieve(plan_next.subgoal_names(), k, snapshot, embedder, delta, denylist)
