"""Embedding providers: a deterministic built-in hasher and a remote adapter."""

from __future__ import annotations

import hashlib
import math
import re
from abc import ABC, abstractmethod
from typing import Callable

from .errors import ConfigError, DimensionMismatchError, TransportError
from .util import http_post_json

DEFAULT_DIMENSION = 384
TIMEOUT_SECONDS = 30.0  # per remote request

_TOKEN_RE = re.compile(r"[a-z0-9_]+")
_HASH_ID_RE = re.compile(r"hash([0-9]+)")
# trigrams over [a-z0-9_ ]: a bucket past this count would stay zero
_MAX_HASH_DIMENSION = 38**3


class EmbeddingProvider(ABC):
    """Maps text deterministically to a fixed-dimension real vector."""

    embedder_id: str
    dimension: int

    @abstractmethod
    def embed(self, text: str) -> list[float]:
        """Embed ``text``; identical text must yield identical vectors."""


class HashingEmbedder(EmbeddingProvider):
    """Feature-hashes 3-grams of the lowercase token stream into buckets.

    Text is normalized to lowercase alphanumeric/underscore tokens joined by
    single spaces and padded with one boundary space on each side; every
    character trigram of that stream is hashed to a bucket and bucket counts
    are L2-normalized. Subword shingles keep related identifiers close
    (``ints`` and ``integers`` share grams) while any non-empty token stream
    embeds non-zero. Empty text embeds to the zero vector.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if not 1 <= dimension <= _MAX_HASH_DIMENSION:
            raise ValueError(f"dimension must be in [1, {_MAX_HASH_DIMENSION}], got {dimension}")
        self.dimension = dimension
        self.embedder_id = f"hash{dimension}"
        # at most one entry per gram
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> list[float]:
        tokens = _TOKEN_RE.findall(text.lower())
        if not tokens:
            return [0.0] * self.dimension
        stream = " " + " ".join(tokens) + " "
        counts = [0.0] * self.dimension
        for i in range(len(stream) - 2):
            gram = stream[i : i + 3]
            bucket = self._buckets.get(gram)
            if bucket is None:
                raw = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
                bucket = self._buckets[gram] = int.from_bytes(raw, "big") % self.dimension
            counts[bucket] += 1.0
        norm = math.sqrt(sum(c * c for c in counts))
        return [c / norm for c in counts]


class RemoteEmbedder(EmbeddingProvider):
    """Adapter for a remote embedding endpoint.

    Sends ``{"text": ...}`` and expects ``{"embedding": [...]}`` of the
    configured dimension, whose entries are numbers, not bools, of finite
    value and norm; any other reply raises TransportError. The default
    transport reads the credential, if any, from the ``ARCS_API_TOKEN``
    environment variable; it is never logged.
    """

    def __init__(
        self,
        endpoint: str,
        dimension: int = DEFAULT_DIMENSION,
        embedder_id: str = "remote",
        transport: Callable[..., dict] | None = None,
    ):
        if not endpoint:
            raise ValueError("endpoint required")
        self.endpoint = endpoint
        self.dimension = dimension
        self.embedder_id = embedder_id
        self._transport = transport or http_post_json

    def embed(self, text: str) -> list[float]:
        reply = self._transport(self.endpoint, {"text": text}, TIMEOUT_SECONDS)
        vector = reply.get("embedding") if isinstance(reply, dict) else None
        if not isinstance(vector, list):
            raise TransportError(f"malformed embedding reply {reply!r:.80}")
        if len(vector) != self.dimension:
            raise DimensionMismatchError(
                f"endpoint returned {len(vector)} dimensions, expected {self.dimension}"
            )
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in vector):
            raise TransportError(f"malformed embedding reply {reply!r:.80}")
        try:
            vector = [float(x) for x in vector]
        except OverflowError as exc:  # an integer too large for a float
            raise TransportError(f"malformed embedding reply: {exc}") from exc
        if not math.isfinite(sum(x * x for x in vector)):
            raise TransportError("embedding reply has a non-finite value or norm")
        return vector


def embedder_for(
    embedder_id: str, endpoint: str = "", dimension: int = DEFAULT_DIMENSION
) -> EmbeddingProvider:
    """The embedder an id names: ``hash<dim>`` is the built-in hasher of that
    dimension, any other id a remote embedder of ``dimension`` at ``endpoint``.

    Raises ValueError for a ``hash<dim>`` with a dimension outside
    [1, 38**3], and ConfigError for a remote id without an endpoint.
    """
    match = _HASH_ID_RE.fullmatch(embedder_id)
    if match:
        return HashingEmbedder(int(match.group(1)))
    if not endpoint:
        raise ConfigError(f"embedder {embedder_id!r} is not built in; give its --embed-endpoint")
    return RemoteEmbedder(endpoint, dimension=dimension, embedder_id=embedder_id)
