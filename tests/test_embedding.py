from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs.embedding import HashingEmbedder, RemoteEmbedder, embedder_for
from arcs.errors import ArcsError, ConfigError, DimensionMismatchError, TransportError
from arcs.retrieval import cosine_sim


def test_empty_text_embeds_to_zero_vector(embedder):
    vector = embedder.embed("")
    assert vector == [0.0] * embedder.dimension


def test_identical_text_embeds_identically(embedder):
    first = embedder.embed("def add(a, b): return a + b")
    second = embedder.embed("def add(a, b): return a + b")
    assert first == second


def test_distinct_texts_have_cosine_below_one(embedder):
    a = embedder.embed("parse a csv line into fields")
    b = embedder.embed("multiply a matrix by a vector")
    assert cosine_sim(a, b) < 1.0


def test_nonempty_text_embeds_nonzero_even_for_single_token(embedder):
    vector = embedder.embed("f")
    norm = math.sqrt(sum(v * v for v in vector))
    assert norm == pytest.approx(1.0)


def test_hash_dimension_is_at_most_the_number_of_distinct_grams():
    # grams are trigrams over [a-z0-9_ ]: a bucket past 38**3 could never be hit
    assert HashingEmbedder(38**3).dimension == 38**3
    with pytest.raises(ValueError, match=r"\[1, 54872\]"):
        HashingEmbedder(38**3 + 1)


def test_embedder_id_tracks_dimension():
    assert HashingEmbedder(128).embedder_id == "hash128"
    assert HashingEmbedder().dimension == 384


@pytest.mark.parametrize("dimension", [1, 7, 384])
def test_a_hash_id_names_the_hasher_of_its_dimension(dimension):
    embedder = embedder_for(f"hash{dimension}", "https://embed.example/v1", dimension=3)
    assert type(embedder) is HashingEmbedder
    assert (embedder.embedder_id, embedder.dimension) == (f"hash{dimension}", dimension)


def test_any_other_id_names_a_remote_embedder_at_its_endpoint():
    for embedder_id in ("remote", "e5-small", "hash", "hash-3", "Hash3", "hash3\n"):
        embedder = embedder_for(embedder_id, "https://embed.example/v1", dimension=3)
        assert type(embedder) is RemoteEmbedder
        assert (embedder.embedder_id, embedder.dimension) == (embedder_id, 3)
        assert embedder.endpoint == "https://embed.example/v1"
    assert embedder_for("remote", "https://embed.example/v1").dimension == 384


def test_an_id_the_embedder_cannot_serve_is_refused():
    with pytest.raises(ValueError, match="dimension"):
        embedder_for("hash0")
    with pytest.raises(ValueError, match="dimension"):
        embedder_for("hash99999999999")
    with pytest.raises(ConfigError, match="'e5-small'.*--embed-endpoint"):
        embedder_for("e5-small")


def test_remote_embedder_uses_transport_and_checks_dimension():
    calls = []

    def transport(url, payload, timeout):
        calls.append((url, payload["text"]))
        return {"embedding": [1.0, 0.0, 0.0]}

    remote = RemoteEmbedder("https://embed.example/v1", dimension=3, transport=transport)
    assert remote.embed("hello") == [1.0, 0.0, 0.0]
    assert calls == [("https://embed.example/v1", "hello")]

    def short_transport(url, payload, timeout):
        return {"embedding": [1.0]}

    bad = RemoteEmbedder("https://embed.example/v1", dimension=3, transport=short_transport)
    with pytest.raises(DimensionMismatchError):
        bad.embed("hello")


@pytest.mark.parametrize(
    "reply",
    [
        [1.0, 0.0, 0.0],
        {"embedding": ["a", "b", "c"]},
        {"embedding": [1.0, None, 0.0]},
        {"embedding": ["1.5", 1.0, 0.0]},
        {"embedding": [True, 0.0, 0.0]},
        {"embedding": [10**400, 0.0, 0.0]},
    ],
    ids=["not_an_object", "entries_not_numbers", "entry_null", "entry_numeric_text", "entry_bool", "entry_past_float"],
)
def test_remote_embedder_malformed_reply_is_arcs_error(reply):
    remote = RemoteEmbedder(
        "https://embed.example/v1", dimension=3, transport=lambda *args, **kwargs: reply
    )
    with pytest.raises(ArcsError):
        remote.embed("hello")


@pytest.mark.parametrize("vector", [[float("nan"), 1e309, 1], [1e200, 1e200, 0.0]], ids=["non_finite", "norm_overflows"])
def test_remote_embedder_rejects_a_non_finite_reply(vector):
    remote = RemoteEmbedder(
        "https://embed.example/v1", dimension=3, transport=lambda *args, **kwargs: {"embedding": vector}
    )
    with pytest.raises(TransportError, match="non-finite"):
        remote.embed("hello")


# SHA-256 of the little-endian float64 bytes of each vector below, in order
PINNED_VECTORS_DIGEST = "46035aa5b0a549a6953d25aac87fc2e3369091f1d75d830ca627fbd06b2b23d3"


def test_hashing_embedder_vectors_are_pinned():
    texts = [
        "def add(a, b): return a + b",
        "Split a csv line into fields.",
        "parse_ints(line)\nSplit a line into integers.",
        "static int join(char *a, char *b)",
        "",
    ]
    embedder = HashingEmbedder()
    digest = hashlib.sha256()
    for text in texts:
        digest.update(np.asarray(embedder.embed(text), dtype="<f8").tobytes())
    assert digest.hexdigest() == PINNED_VECTORS_DIGEST


def _reference_embed(text: str, dimension: int) -> list[float]:
    """Oracle: every trigram hashed afresh with blake2b, no memo."""
    tokens = re.findall(r"[a-z0-9_]+", text.lower())
    if not tokens:
        return [0.0] * dimension
    stream = " " + " ".join(tokens) + " "
    counts = [0.0] * dimension
    for i in range(len(stream) - 2):
        raw = hashlib.blake2b(stream[i : i + 3].encode("utf-8"), digest_size=8).digest()
        counts[int.from_bytes(raw, "big") % dimension] += 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return [c / norm for c in counts]


# one instance per dimension for the whole run, so later examples hit the memo
_SHARED_EMBEDDERS = {dimension: HashingEmbedder(dimension) for dimension in (7, 384)}

# repeated grams, case folding, and non-ASCII letters (the Kelvin sign lowercases to "k")
_FRAGMENTS = ["ab", "abab", "x_1", "AB", " ", "\n", "-", "\u00e9clair", "\u212aelvin", "\u0130d", "\u65e5\u672c"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join) | st.text(max_size=40),
    st.sampled_from(sorted(_SHARED_EMBEDDERS)),
)
def test_memoised_embedding_equals_fresh_hashing(text, dimension):
    embedder = _SHARED_EMBEDDERS[dimension]
    expected = _reference_embed(text, dimension)
    assert embedder.embed(text) == expected
    assert embedder.embed(text) == expected
