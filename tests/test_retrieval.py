from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs import retrieval
from arcs.corpus import CorpusSnapshot
from arcs.embedding import HashingEmbedder
from arcs.errors import DimensionMismatchError, EmbedderMismatchError
from arcs.planner import Plan
from arcs.retrieval import (
    RetrievalQuery,
    cosine_sim,
    filter_redundancy,
    plan_conditioned_retrieve,
    refresh,
    signature_name,
    top_k,
)

from helpers import make_record, normalized, snapshot_from_embeddings, snapshot_items, unit_vector


def test_cosine_identical_unit_vectors():
    assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)


def test_cosine_reference_value():
    # dot=32, norms sqrt(14) and sqrt(77)
    assert cosine_sim([1, 2, 3], [4, 5, 6]) == pytest.approx(0.974632, abs=1e-6)


def test_cosine_symmetry_and_range():
    rng = random.Random(7)
    for _ in range(50):
        a = [rng.uniform(-1, 1) for _ in range(8)]
        b = [rng.uniform(-1, 1) for _ in range(8)]
        forward = cosine_sim(a, b)
        assert forward == pytest.approx(cosine_sim(b, a))
        assert -1.0 - 1e-12 <= forward <= 1.0 + 1e-12


def test_cosine_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        cosine_sim([1.0], [1.0, 2.0])


def test_cosine_zero_vector_is_zero():
    assert cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0


@pytest.mark.parametrize(
    "row",
    [(1e200, 2e200, 3e200), (math.nan, 0.0, 1.0), (0.0, -math.inf, 0.0)],
    ids=["norm_overflows", "nan", "infinite"],
)
def test_vectors_whose_squared_norm_is_not_finite_are_rejected(row):
    with pytest.raises(ValueError, match="v2 has a non-finite embedding norm"):
        cosine_sim((1.0, 0.0, 0.0), row)
    with pytest.raises(ValueError, match="v1 has a non-finite embedding norm"):
        cosine_sim(row, row)


def _id_embedder(dimension):
    embedder = HashingEmbedder(dimension)
    return embedder


def test_top_k_tie_break_by_ascending_index():
    # items 0 and 1 share an embedding, so they tie exactly on any query
    shared = unit_vector(4, 0)
    snap = snapshot_from_embeddings([shared, shared, unit_vector(4, 1)], embedder_id="hash4")
    embedder = _id_embedder(4)
    query_vector = embedder.embed("anything")
    # score via the items themselves: replace the query with a planted vector
    result = top_k(RetrievalQuery("anything", 2), snap, embedder)
    assert [item.index for item, _ in result.items] == [0, 1]


def test_top_k_budget_beyond_corpus_returns_all():
    snap = snapshot_from_embeddings(
        [unit_vector(4, i % 4) for i in range(3)], embedder_id="hash4"
    )
    result = top_k(RetrievalQuery("q", 50), snap, _id_embedder(4))
    assert len(result.items) == 3


def test_top_k_matches_brute_force_oracle():
    rng = random.Random(13)
    dimension = 16
    embedder = HashingEmbedder(dimension)
    texts = [f"function {i} handles case {rng.randrange(5)}" for i in range(50)]
    snap = snapshot_from_embeddings(
        [embedder.embed(t) for t in texts], embedder_id=embedder.embedder_id
    )
    query = "function handles case 3"
    result = top_k(RetrievalQuery(query, 5), snap, embedder)

    # independent oracle: pure-python cosine over every item, full sort
    query_vector = embedder.embed(query)
    scores = []
    for row in snap.matrix:
        dot = sum(a * b for a, b in zip(query_vector, row))
        qn = math.sqrt(sum(a * a for a in query_vector))
        en = math.sqrt(sum(b * b for b in row))
        scores.append(0.0 if qn == 0 or en == 0 else dot / (qn * en))
    expected = sorted(range(len(snap.items)), key=lambda i: (-scores[i], i))[:5]
    assert [item.index for item, _ in result.items] == expected


def test_top_k_rejects_mismatched_embedder():
    snap = snapshot_from_embeddings([unit_vector(4, 0)], embedder_id="hash4")
    with pytest.raises(EmbedderMismatchError):
        top_k(RetrievalQuery("q", 1), snap, HashingEmbedder(8))


def test_top_k_is_deterministic():
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings(
        [embedder.embed(f"item {i}") for i in range(20)], embedder_id="hash8"
    )
    first = top_k(RetrievalQuery("item query", 5), snap, embedder)
    second = top_k(RetrievalQuery("item query", 5), snap, embedder)
    assert first == second


def test_denylist_excludes_items_by_name():
    embedder = HashingEmbedder(8)
    items = [embedder.embed("alpha"), embedder.embed("beta")]
    snap = snapshot_from_embeddings(items, embedder_id="hash8")
    result = top_k(
        RetrievalQuery("alpha", 2), snap, embedder, denylist=frozenset({"item_0"})
    )
    assert [item.index for item, _ in result.items] == [1]


def test_top_k_with_denylist_orders_boundary_ties_like_a_brute_force_scan():
    rng = random.Random(21)
    dimension = 8
    base = [normalized([rng.gauss(0, 1) for _ in range(dimension)]) for _ in range(12)]
    # every row appears three times at scattered indices, so exact ties straddle many k
    rows = [base[i % 12] for i in range(36)]
    rng.shuffle(rows)
    query = [rng.gauss(0, 1) for _ in range(dimension)]

    class PlantedEmbedder(HashingEmbedder):
        def embed(self, text):
            return list(query)

    embedder = PlantedEmbedder(dimension)
    snap = snapshot_from_embeddings(rows, embedder_id=embedder.embedder_id)
    denylist = frozenset(f"item_{i}" for i in range(0, 36, 5))

    # independent oracle: pure-python cosine, denylisted names skipped, full sort
    query_norm = math.sqrt(sum(x * x for x in query))
    scores = [
        sum(a * b for a, b in zip(query, row)) / (query_norm * math.sqrt(sum(b * b for b in row)))
        for row in rows
    ]
    allowed = [i for i in range(len(rows)) if f"item_{i}" not in denylist]
    oracle = sorted(allowed, key=lambda i: (-scores[i], i))
    straddled = 0
    for k in range(1, len(allowed) + 2):
        result = top_k(RetrievalQuery("q", k), snap, embedder, denylist)
        assert result.indices() == oracle[:k], k
        if k < len(oracle) and scores[oracle[k - 1]] == scores[oracle[k]]:
            straddled += 1
    assert straddled >= 3


def test_top_k_denylist_covers_every_row_of_a_shared_name():
    rng = random.Random(34)
    dimension = 8
    query = [rng.gauss(0, 1) for _ in range(dimension)]

    class PlantedEmbedder(HashingEmbedder):
        def embed(self, text):
            return list(query)

    # several rows share the denylisted name "dup", several the allowed name "keep"
    names = ["dup", "keep", "solo_a", "dup", "keep", "dup", "solo_b", "keep", "dup", "solo_c"]
    rows = [normalized([rng.gauss(0, 1) for _ in range(dimension)]) for _ in names]
    records = [make_record(i, signature=f"{name}(x)") for i, name in enumerate(names)]
    embedder = PlantedEmbedder(dimension)
    snap = CorpusSnapshot.build(records, rows, embedder.embedder_id, created_at="2026-01-01T00:00:00+00:00")
    denylist = frozenset({"dup", "solo_b", "absent"})

    # independent oracle: pure-python cosine, denylisted names skipped, full sort
    query_norm = math.sqrt(sum(x * x for x in query))
    scores = [
        sum(a * b for a, b in zip(query, row)) / (query_norm * math.sqrt(sum(b * b for b in row)))
        for row in rows
    ]
    oracle = sorted(
        (i for i, name in enumerate(names) if name not in denylist), key=lambda i: (-scores[i], i)
    )
    for k in range(1, len(names) + 1):
        assert top_k(RetrievalQuery("q", k), snap, embedder, denylist).indices() == oracle[:k], k


@pytest.mark.parametrize(
    "query",
    [[math.inf] + [0.0] * 7, [math.nan] + [0.0] * 7, [1e200] * 8],
    ids=["infinite", "nan", "norm_overflows"],
)
def test_top_k_rejects_a_query_vector_with_a_non_finite_norm(query):
    # a cosine over such a query is NaN, or 0 for every item
    class PlantedEmbedder(HashingEmbedder):
        def embed(self, text):
            return list(query)

    embedder = PlantedEmbedder(8)
    snap = snapshot_from_embeddings([unit_vector(8, i) for i in range(5)], embedder_id=embedder.embedder_id)
    with pytest.raises(ValueError, match="query"):
        top_k(RetrievalQuery("q", 3), snap, embedder)


@st.composite
def _named_rows(draw):
    """Up to 12 rows drawn from a few small-integer vectors, so exact ties are
    common, each under one of a few shared names."""
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=1, max_size=4))
    count = draw(st.integers(1, 12))
    rows = draw(st.lists(st.sampled_from(vectors), min_size=count, max_size=count))
    names = draw(st.lists(st.sampled_from("abcde"), min_size=count, max_size=count))
    return rows, names


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_named_rows(), st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any), st.data())
def test_top_k_with_a_denylist_equals_a_brute_force_scan(named_rows, query, data):
    rows, names = named_rows

    class PlantedEmbedder(HashingEmbedder):
        def embed(self, text):
            return [float(x) for x in query]

    embedder = PlantedEmbedder(3)
    records = [make_record(i, signature=f"{name}(x)") for i, name in enumerate(names)]
    snap = CorpusSnapshot.build(records, rows, embedder.embedder_id, created_at="2026-01-01T00:00:00+00:00")

    # independent oracle: pure-python cosine, denylisted names skipped, full sort
    query_norm = math.sqrt(sum(x * x for x in query))
    scores = []
    for row in rows:
        row_norm = math.sqrt(sum(x * x for x in row))
        scores.append(0.0 if row_norm == 0 else sum(a * b for a, b in zip(query, row)) / (row_norm * query_norm))
    ranking = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    k = data.draw(st.integers(1, len(rows) + 1))
    denylist = data.draw(
        st.sets(st.sampled_from("abcdez"))
        # the names of the best ranks, so the first pool of candidates runs short
        | st.integers(1, k).map(lambda top: {names[i] for i in ranking[:top]})
        | st.just(set(names))
    )
    oracle = [i for i in ranking if names[i] not in denylist][:k]
    result = top_k(RetrievalQuery("q", k), snap, embedder, frozenset(denylist))
    assert result.indices() == oracle
    assert result.scores() == [scores[i] for i in oracle]
    if denylist >= set(names):
        assert result.items == ()


def test_signature_name_variants():
    assert signature_name("add(a, b)") == "add"
    assert signature_name("static int join(char *a)") == "join"
    assert signature_name("Accumulator(object)") == "Accumulator"


def _two_vectors_with_cosine(value):
    first = (1.0, 0.0)
    second = (value, math.sqrt(1.0 - value * value))
    return first, second


def test_filter_drops_later_index_above_delta():
    a, b = _two_vectors_with_cosine(0.9)
    snapshot, items = snapshot_items([a, b])
    survivors = filter_redundancy(items, snapshot, delta=0.85)
    assert [item.index for item in survivors] == [0]


def test_filter_keeps_everything_at_or_below_delta():
    a, b = _two_vectors_with_cosine(0.5)
    snapshot, items = snapshot_items([a, b])
    assert filter_redundancy(items, snapshot, delta=0.85) == items


def test_filter_collapses_exact_duplicates():
    vec = normalized([1.0, 2.0, 3.0])
    snapshot, items = snapshot_items([vec, vec])
    survivors = filter_redundancy(items, snapshot, delta=0.85)
    assert [item.index for item in survivors] == [0]


def test_filter_survivor_set_ignores_input_order():
    a, b = _two_vectors_with_cosine(0.99)
    snapshot, items = snapshot_items([a, b])
    survivors = filter_redundancy(items[::-1], snapshot, delta=0.85)
    # lower corpus index survives even when listed later
    assert [item.index for item in survivors] == [0]


def test_filter_greedy_prefix_chain():
    # a~b and b~c above delta, a~c below: b removed, then c survives via a
    a = (1.0, 0.0)
    b = (math.cos(math.radians(25)), math.sin(math.radians(25)))
    c = (math.cos(math.radians(50)), math.sin(math.radians(50)))
    snapshot, items = snapshot_items([a, b, c])
    assert cosine_sim(a, b) > 0.85 and cosine_sim(b, c) > 0.85 and cosine_sim(a, c) < 0.85
    survivors = filter_redundancy(items, snapshot, delta=0.85)
    assert [item.index for item in survivors] == [0, 2]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=32),
            min_size=4,
            max_size=4,
        ),
        min_size=0,
        max_size=12,
    ),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
)
def test_filter_idempotent(vectors, delta):
    snapshot, items = snapshot_items(vectors)
    once = filter_redundancy(items, snapshot, delta)
    twice = filter_redundancy(once, snapshot, delta)
    assert twice == once


def test_filter_monotone_in_delta_on_planted_pairs():
    rng = random.Random(5)
    originals = []
    for _ in range(8):
        vec = [rng.gauss(0, 1) for _ in range(32)]
        originals.append(normalized(vec))
    items = []
    for vec in originals:
        items.append(vec)
        noisy = [v + rng.gauss(0, 0.01) for v in vec]
        items.append(normalized(noisy))
    snapshot, corpus = snapshot_items(items)
    deltas = [0.5, 0.85, 0.9, 0.999]
    survivor_sets = [
        {item.index for item in filter_redundancy(corpus, snapshot, delta)} for delta in deltas
    ]
    for tighter, looser in zip(survivor_sets, survivor_sets[1:]):
        assert tighter <= looser


def _loop_cosine(v1, v2):
    """Oracle: cosine as a plain sequential loop; a zero norm gives 0."""
    dot = 0.0
    n1 = 0.0
    n2 = 0.0
    for a, b in zip(v1, v2):
        dot += a * b
        n1 += a * a
        n2 += b * b
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return dot / (math.sqrt(n1) * math.sqrt(n2))


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# signed zeros included; no magnitude small enough for a norm to underflow
_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=-10.0, max_value=-1e-3),
)


@st.composite
def _planted_vectors(draw, min_size=0, max_size=10):
    """Vectors of one dimension: fresh, zero, or an earlier one with a coordinate nudged."""
    dimension = draw(st.integers(min_value=1, max_value=32))
    vectors = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        kind = draw(st.sampled_from(["fresh", "zero", "near"] if vectors else ["fresh", "zero"]))
        if kind == "fresh":
            vector = draw(st.lists(_COORDINATES, min_size=dimension, max_size=dimension))
        elif kind == "zero":
            vector = [0.0] * dimension
        else:
            vector = list(draw(st.sampled_from(vectors)))
            vector[draw(st.integers(0, dimension - 1))] += draw(st.sampled_from([0.0, 1e-9, 0.3]))
        vectors.append(vector)
    return vectors


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_planted_vectors(min_size=2, max_size=2))
def test_cosine_sim_is_the_loop_bit_for_bit(pair):
    assert _bits(cosine_sim(*pair)) == _bits(_loop_cosine(*pair))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_planted_vectors(), st.randoms(use_true_random=False), st.data())
def test_filter_matches_a_greedy_loop_scan(vectors, rng, data):
    # thresholds on a pair's own cosine are decided by its last bit
    on_a_pair = [c for a in vectors for b in vectors if 0.0 < (c := _loop_cosine(a, b)) <= 1.0]
    delta = data.draw(
        st.sampled_from([0.5, 0.85, 0.99, 1.0, *on_a_pair]) | st.floats(min_value=0.05, max_value=1.0)
    )
    snapshot, items = snapshot_items(vectors)
    rng.shuffle(items)
    kept = []
    for item in sorted(items, key=lambda item: item.index):
        row = snapshot.matrix[item.index]
        if not any(_loop_cosine(row, snapshot.matrix[other.index]) > delta for other in kept):
            kept.append(item)
    assert filter_redundancy(items, snapshot, delta) == [item for item in items if item in kept]


def test_plan_conditioned_single_subgoal_equals_top_k():
    # holds when no retrieved pair exceeds delta (single-subgoal union is
    # still redundancy-filtered per the aggregation rule)
    words = ["gradient", "mutex", "parser", "socket", "quaternion", "ledger"]
    embedder = HashingEmbedder(64)
    vectors = [embedder.embed(word) for word in words]
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            assert cosine_sim(a, b) <= 0.85
    snap = snapshot_from_embeddings(vectors, embedder_id="hash64")
    merged = plan_conditioned_retrieve(["parser"], 4, snap, embedder)
    plain = top_k(RetrievalQuery("parser", 4), snap, embedder)
    assert [item.index for item, _ in merged.items] == [item.index for item, _ in plain.items]


def test_plan_conditioned_splits_budget_across_disjoint_clusters():
    # two orthogonal clusters; each subgoal should pull ceil(4/2)=2 from its own
    dimension = 8
    cluster_a = [unit_vector(dimension, 0), unit_vector(dimension, 1)]
    cluster_b = [unit_vector(dimension, 4), unit_vector(dimension, 5)]

    class PlantedEmbedder(HashingEmbedder):
        def embed(self, text):
            if "alpha" in text:
                return list(normalized([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
            if "beta" in text:
                return list(normalized([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))
            return super().embed(text)

    embedder = PlantedEmbedder(dimension)
    snap = snapshot_from_embeddings(cluster_a + cluster_b, embedder_id="hash8")
    result = plan_conditioned_retrieve(["alpha", "beta"], 4, snap, embedder)
    indices = {item.index for item, _ in result.items}
    assert len(result.items) <= 4
    assert indices & {0, 1} and indices & {2, 3}


def test_plan_conditioned_scans_once_per_subgoal_through_the_module_attribute(monkeypatch):
    # a traced run times each scan by swapping retrieval.top_k; every scan must pass through it
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings(
        [embedder.embed(f"topic {i}") for i in range(6)], embedder_id="hash8"
    )
    calls = []

    def counting_top_k(*args, **kwargs):
        calls.append(args[0].text)
        return top_k(*args, **kwargs)

    monkeypatch.setattr(retrieval, "top_k", counting_top_k)
    plan_conditioned_retrieve(["topic 1", "", "topic 4", "topic 5"], 4, snap, embedder)
    assert calls == ["topic 1", "topic 4", "topic 5"]


def test_plan_conditioned_union_deduplicates():
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings([embedder.embed("shared topic")], embedder_id="hash8")
    result = plan_conditioned_retrieve(["shared topic", "shared topic two"], 4, snap, embedder)
    assert [item.index for item, _ in result.items] == [0]


def test_plan_conditioned_skips_empty_subgoals():
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings([embedder.embed("thing")], embedder_id="hash8")
    result = plan_conditioned_retrieve(["", "thing"], 2, snap, embedder)
    assert len(result.items) == 1
    with pytest.raises(ValueError):
        plan_conditioned_retrieve(["", "  "], 2, snap, embedder)


def test_refresh_dispatches_on_plan_presence():
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings(
        [embedder.embed(f"topic {i}") for i in range(6)], embedder_id="hash8"
    )
    no_plan = refresh("topic 2", None, 3, snap, embedder)
    assert no_plan == top_k(RetrievalQuery("topic 2", 3), snap, embedder)

    plan = Plan(contract="", sketch="", subgoals=(("topic 1", ""), ("topic 4", "")))
    with_plan = refresh("ignored", plan, 3, snap, embedder)
    assert with_plan == plan_conditioned_retrieve(["topic 1", "topic 4"], 3, snap, embedder)

    empty_plan = Plan(contract="c", sketch="s", subgoals=())
    assert refresh("topic 2", empty_plan, 3, snap, embedder) == no_plan


def test_refresh_is_stable_across_identical_calls():
    embedder = HashingEmbedder(8)
    snap = snapshot_from_embeddings(
        [embedder.embed(f"topic {i}") for i in range(6)], embedder_id="hash8"
    )
    first = refresh("same question", None, 3, snap, embedder)
    second = refresh("same question", None, 3, snap, embedder)
    assert first.query_digest == second.query_digest
    assert first == second
