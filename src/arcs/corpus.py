"""Source ingestion into an embedded, frozen, ordered retrieval corpus.

One corpus item per top-level function or class definition, extracted with a
line/regex-level scanner. The embedded metadata is the concatenation of the
item's signature, doc text, and in-span comments.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import operator
import re
import struct
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .embedding import EmbeddingProvider
from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    IngestError,
    SnapshotCorruptionError,
)
from .util import canonical_json, utc_now_iso

log = logging.getLogger(__name__)

SNAPSHOT_FORMAT = "arcs-snapshot"
SNAPSHOT_VERSION = 2

LANGUAGE_BY_EXTENSION = {
    ".py": "python",
    ".c": "c",
    ".h": "c",
    ".cc": "cpp",
    ".cpp": "cpp",
    ".cxx": "cpp",
    ".hpp": "cpp",
    ".js": "javascript",
    ".ts": "javascript",
    ".java": "java",
}


@dataclass(frozen=True, eq=False)
class CorpusItem:
    """One extracted top-level definition plus its metadata embedding.

    ``index`` is the item's position in the fixed corpus ordering; indices
    are unique and contiguous from 0 within a snapshot. Inside a snapshot
    ``embedding`` is a read-only row of the snapshot's matrix; items built by
    hand may hold any sequence of floats.
    """

    index: int
    signature: str
    doc: str
    body: str
    source_path: str
    language: str
    embedding: Sequence[float]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CorpusItem):
            return NotImplemented
        return _metadata(self) == _metadata(other) and np.array_equal(
            self.embedding, other.embedding
        )


_METADATA_NAMES = tuple(field.name for field in fields(CorpusItem) if field.name != "embedding")
_METADATA_FIELDS = frozenset(_METADATA_NAMES)
_metadata_values = operator.itemgetter(*_METADATA_NAMES)


def _metadata(item: CorpusItem) -> dict:
    return {
        "index": item.index,
        "signature": item.signature,
        "doc": item.doc,
        "body": item.body,
        "source_path": item.source_path,
        "language": item.language,
    }


@dataclass(frozen=True, eq=False)
class CorpusSnapshot:
    """Immutable, digest-verified corpus of embedded items.

    The snapshot owns its embeddings as one read-only, C-contiguous float64
    ``(n, dimension)`` ``matrix``; ``norms`` holds its row L2 norms and
    ``rows_by_name`` the rows of each signature name, for a top-k denylist.
    """

    items: tuple[CorpusItem, ...]
    embedder_id: str
    dimension: int
    created_at: str
    content_digest: str
    matrix: np.ndarray
    norms: np.ndarray
    rows_by_name: dict[str, list[int]]

    @classmethod
    def build(
        cls,
        items: Sequence[CorpusItem],
        embedder_id: str,
        dimension: int,
        created_at: str | None = None,
    ) -> "CorpusSnapshot":
        items = tuple(items)
        if not items:
            raise EmptyCorpusError("snapshot requires at least one item")
        for position, item in enumerate(items):
            if item.index != position:
                raise ValueError(f"item indices must be contiguous from 0, got {item.index} at {position}")
            if len(item.embedding) != dimension:
                raise ValueError(
                    f"item {item.index} has embedding dimension {len(item.embedding)}, expected {dimension}"
                )
        # struct packs Python floats faster than np.array reads a list of tuples
        row = struct.Struct(f"{dimension}d")
        packed = b"".join([row.pack(*item.embedding) for item in items])
        matrix = np.frombuffer(packed, dtype=np.float64).reshape(len(items), dimension)
        records = [_metadata(item) for item in items]
        digest = compute_content_digest((_metadata_line(record) for record in records), matrix)
        metadata = [_metadata_values(record) for record in records]
        return cls._from_parts(metadata, matrix, embedder_id, created_at or utc_now_iso(), digest)

    @classmethod
    def _from_parts(
        cls,
        metadata: Sequence[tuple],
        matrix: np.ndarray,
        embedder_id: str,
        created_at: str,
        content_digest: str,
    ) -> "CorpusSnapshot":
        """The snapshot whose items have the ``metadata`` field values, in field
        order, and the rows of ``matrix`` as embeddings."""
        matrix.flags.writeable = False
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms.flags.writeable = False
        items = tuple(CorpusItem(*values, embedding=row) for values, row in zip(metadata, matrix))
        rows_by_name: dict[str, list[int]] = {}
        for row, item in enumerate(items):
            rows_by_name.setdefault(signature_name(item.signature), []).append(row)
        return cls(
            items=items,
            embedder_id=embedder_id,
            dimension=matrix.shape[1],
            created_at=created_at,
            content_digest=content_digest,
            matrix=matrix,
            norms=norms,
            rows_by_name=rows_by_name,
        )

    def __len__(self) -> int:
        return len(self.items)


def compute_content_digest(metadata_lines: Iterable[bytes], matrix: np.ndarray) -> str:
    """SHA-256 over the matrix shape, the canonical JSON array of the item
    metadata records, and the little-endian float64 matrix bytes; the records
    arrive as ``metadata_lines``, one UTF-8 line per item as the file holds them."""
    digest = _metadata_hash(*matrix.shape, metadata_lines)
    digest.update(np.ascontiguousarray(matrix, dtype="<f8"))
    return digest.hexdigest()


def _metadata_hash(count: int, dimension: int, metadata_lines: Iterable[bytes]):
    """The digest's SHA-256 fed the shape line and the JSON array whose
    elements are ``metadata_lines``; the matrix bytes come next."""
    digest = hashlib.sha256(f"{count} {dimension}\n[".encode("ascii"))
    for position, line in enumerate(metadata_lines):
        if position:
            digest.update(b",")
        digest.update(line)
    digest.update(b"]\n")
    return digest


def _metadata_line(record: dict) -> bytes:
    return canonical_json(record).encode("utf-8")


def signature_name(signature: str) -> str:
    """Leading identifier of a signature, used for denylist matching."""
    name = ""
    head = signature.split("(", 1)[0]
    for token in reversed(head.replace("*", " ").replace("&", " ").split()):
        if token and (token[0].isalpha() or token[0] == "_"):
            name = token
            break
    return name.split("::")[-1].split(".")[-1]


def metadata_text(signature: str, doc: str, comments: Sequence[str]) -> str:
    parts = [signature, doc, *comments]
    return "\n".join(part for part in parts if part.strip())


def embed_metadata(item_metadata: str, embedder: EmbeddingProvider) -> list[float]:
    """Embed metadata text; empty text yields the zero vector with a warning."""
    if not item_metadata.strip():
        log.warning("embedding empty metadata text; using zero vector")
        return [0.0] * embedder.dimension
    vector = embedder.embed(item_metadata)
    if len(vector) != embedder.dimension:
        raise DimensionMismatchError(
            f"embedder produced {len(vector)} dimensions, declared {embedder.dimension}"
        )
    return vector


@dataclass(frozen=True)
class RawDefinition:
    signature: str
    doc: str
    body: str
    comments: tuple[str, ...]


def extract_definitions(text: str, language: str) -> list[RawDefinition]:
    """Extract top-level definitions in in-file order.

    A line-level extractor: full parsing is out of scope. Unknown languages
    yield no definitions.
    """
    if language == "python":
        return _extract_python(text)
    if language in ("c", "cpp", "javascript", "java"):
        return _extract_braced(text)
    return []


_PY_DEF_RE = re.compile(r"^(?:async\s+)?(?:def|class)\s+[A-Za-z_]")
_STRING_OPEN_RE = re.compile(r"""^[rRuUbB]{0,2}("{3}|'{3}|"|')""")


def _py_header_split(line: str) -> tuple[str, str]:
    """Split a def/class line into (signature, same-line remainder)."""
    stripped = line.strip()
    if stripped.startswith("async "):
        stripped = stripped[len("async ") :].lstrip()
    for keyword in ("def ", "class "):
        if stripped.startswith(keyword):
            stripped = stripped[len(keyword) :]
            break
    depth = 0
    for pos, char in enumerate(stripped):
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        elif char == ":" and depth == 0:
            return stripped[:pos].strip(), stripped[pos + 1 :].strip()
    return stripped.strip(), ""


def _parse_string_literal(lines: list[str], start: int) -> str | None:
    """Parse a string literal beginning at lines[start]; returns its text."""
    first = lines[start].strip()
    match = _STRING_OPEN_RE.match(first)
    if not match:
        return None
    quote = match.group(1)
    rest = first[match.end() :]
    if quote in ('"""', "'''"):
        close = rest.find(quote)
        if close >= 0:
            return rest[:close].strip()
        collected = [rest]
        for line in lines[start + 1 :]:
            close = line.find(quote)
            if close >= 0:
                collected.append(line[:close])
                return "\n".join(part.strip() for part in collected).strip()
            collected.append(line)
        return "\n".join(part.strip() for part in collected).strip()
    close = rest.find(quote)
    if close >= 0:
        return rest[:close]
    return rest


def _extract_python(text: str) -> list[RawDefinition]:
    lines = text.splitlines()
    starts = [i for i, line in enumerate(lines) if _PY_DEF_RE.match(line)]
    # a run of column-0 decorators directly above a definition opens its body
    tops = []
    for start in starts:
        top = start
        while top > 0 and lines[top - 1].startswith("@"):
            top -= 1
        tops.append(top)
    definitions: list[RawDefinition] = []
    for top, start, end in zip(tops, starts, tops[1:] + [len(lines)]):
        span = lines[top:end]
        while span and not span[-1].strip():
            span.pop()
        signature, inline_rest = _py_header_split(lines[start])
        doc = ""
        if inline_rest:
            doc = _parse_string_literal([inline_rest], 0) or ""
        if not doc:
            body_lines = span[start - top + 1 :]
            for offset, line in enumerate(body_lines):
                if not line.strip():
                    continue
                doc = _parse_string_literal([line.strip(), *body_lines[offset + 1 :]], 0) or ""
                break
        comments = tuple(
            line.strip()[1:].strip()
            for line in span
            if line.strip().startswith("#")
        )
        definitions.append(
            RawDefinition(signature=signature, doc=doc, body="\n".join(span), comments=comments)
        )
    return definitions


_BRACED_HEADER_RE = re.compile(r"^[A-Za-z_][\w\s\*&:<>,\[\].$]*?\b([A-Za-z_]\w*)\s*\(")
_BRACED_SKIP = {"if", "for", "while", "switch", "return", "else", "do", "catch", "sizeof"}


def _extract_braced(text: str) -> list[RawDefinition]:
    lines = text.splitlines()
    definitions: list[RawDefinition] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        match = _BRACED_HEADER_RE.match(line)
        if not match or line.rstrip().endswith(";"):
            i += 1
            continue
        first_word = line.split("(", 1)[0].split()
        if first_word and first_word[0] in _BRACED_SKIP:
            i += 1
            continue
        # locate the opening brace on this or one of the next few lines
        open_line = None
        for j in range(i, min(i + 4, len(lines))):
            if "{" in lines[j]:
                open_line = j
                break
            if lines[j].rstrip().endswith(";"):
                break
        if open_line is None:
            i += 1
            continue
        depth = 0
        end = None
        for j in range(open_line, len(lines)):
            depth += lines[j].count("{") - lines[j].count("}")
            if depth <= 0 and j >= open_line:
                end = j
                break
        if end is None:
            end = len(lines) - 1
        span = lines[i : end + 1]
        signature = " ".join(" ".join(lines[i:open_line + 1]).split())
        signature = signature.split("{", 1)[0].strip()
        doc_lines: list[str] = []
        j = i - 1
        while j >= 0:
            stripped = lines[j].strip()
            if stripped.startswith("//") or stripped.startswith("/*") or stripped.startswith("*"):
                doc_lines.append(stripped.lstrip("/*").rstrip("*/").strip())
                j -= 1
            else:
                break
        doc_lines.reverse()
        comments = tuple(
            inner.strip()
            for inner in (ln.split("//", 1)[1] for ln in span if "//" in ln)
        )
        definitions.append(
            RawDefinition(
                signature=signature,
                doc="\n".join(doc_lines).strip(),
                body="\n".join(span),
                comments=comments,
            )
        )
        i = end + 1
    return definitions


def ingest(paths: Sequence[str | Path], embedder: EmbeddingProvider) -> CorpusSnapshot:
    """Ingest source files into a frozen snapshot.

    Items are ordered by (file path lexicographic, in-file position) and
    embedded from their concatenated signature, doc, and comments. Repeated
    ingestion of identical bytes with the same embedder yields an identical
    content digest.
    """
    if not paths:
        raise IngestError("no input paths given")
    ordered_paths = sorted(paths, key=str)
    items: list[CorpusItem] = []
    for path in ordered_paths:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestError(f"cannot read input path {path}: {exc}") from exc
        language = LANGUAGE_BY_EXTENSION.get(path.suffix.lower(), "text")
        for definition in extract_definitions(text, language):
            meta = metadata_text(definition.signature, definition.doc, definition.comments)
            vector = embed_metadata(meta, embedder)
            items.append(
                CorpusItem(
                    index=len(items),
                    signature=definition.signature,
                    doc=definition.doc,
                    body=definition.body,
                    source_path=str(path),
                    language=language,
                    embedding=tuple(vector),
                )
            )
    if not items:
        raise EmptyCorpusError("no definitions extracted from the given paths")
    return CorpusSnapshot.build(items, embedder.embedder_id, embedder.dimension)


def save_snapshot(snapshot: CorpusSnapshot, path: str | Path) -> None:
    """Persist a snapshot as a header line, one metadata line per item, one matrix line.

    The matrix line is the base64 text of the zlib-compressed little-endian
    float64 bytes of ``snapshot.matrix``.
    """
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "embedder_id": snapshot.embedder_id,
        "dimension": snapshot.dimension,
        "created_at": snapshot.created_at,
        "count": len(snapshot.items),
        "content_digest": snapshot.content_digest,
    }
    with Path(path).open("wb") as file:
        file.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for item in snapshot.items:
            file.write(_metadata_line(_metadata(item)) + b"\n")
        matrix = np.ascontiguousarray(snapshot.matrix, dtype="<f8")
        file.write(base64.b64encode(zlib.compress(matrix)) + b"\n")


def load_snapshot(path: str | Path) -> CorpusSnapshot:
    """Load and integrity-check a snapshot; any damage or digest mismatch raises.

    The file is read one line at a time: each metadata line is hashed and
    parsed as it arrives, and the matrix line is decoded once into the bytes
    the snapshot's matrix wraps.
    """
    path = Path(path)
    try:
        with path.open("rb") as file:
            return _read_snapshot(file, path)
    except OSError as exc:
        raise SnapshotCorruptionError(f"cannot read snapshot {path}: {exc}") from exc


def _read_snapshot(file: BinaryIO, path: Path) -> CorpusSnapshot:
    # blank lines are skipped; CRLF line ends read as LF
    lines = (line.rstrip(b"\r\n") for line in file if not line.isspace())
    try:
        header = json.loads(next(lines).decode("utf-8"))
    except StopIteration:
        raise SnapshotCorruptionError(f"snapshot {path} is empty") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise SnapshotCorruptionError(f"snapshot {path} has an unreadable header") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptionError(f"snapshot {path} is not an {SNAPSHOT_FORMAT} file")
    version = header.get("version")
    if version == 1:
        raise SnapshotCorruptionError(
            f"snapshot {path} has format version 1, which is no longer read; "
            "re-run `arcs index` to rebuild it"
        )
    if version != SNAPSHOT_VERSION:
        raise SnapshotCorruptionError(f"snapshot {path} has unsupported format version {version!r}")
    try:
        count, dimension = int(header["count"]), int(header["dimension"])
        embedder_id, created_at = header["embedder_id"], header["created_at"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(f"snapshot {path} has a malformed header: {exc!r}") from exc
    records: list[tuple] = []

    def item_lines() -> Iterator[bytes]:
        """The next ``count`` lines, each parsed into ``records`` before it is hashed."""
        for position, line in zip(range(count), lines):
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
                raise SnapshotCorruptionError(f"snapshot {path} has corrupt item metadata") from exc
            if not isinstance(record, dict) or record.keys() != _METADATA_FIELDS or record["index"] != position:
                raise SnapshotCorruptionError(f"snapshot {path} line {position + 2} is corrupt")
            records.append(_metadata_values(record))
            yield line

    digest = _metadata_hash(count, dimension, item_lines())
    matrix_line = next(lines, None)
    after_header = len(records) + (matrix_line is not None) + sum(1 for _ in lines)
    if after_header != count + 1:
        raise SnapshotCorruptionError(
            f"snapshot {path} holds {max(after_header - 1, 0)} items, header declares {count}"
        )
    try:
        compressed = base64.b64decode(matrix_line, validate=True)
        del matrix_line
        # an exact first buffer spares zlib joining its output blocks; deflate
        # expands at most 1032-fold, which bounds a forged dimension
        bufsize = min(count * dimension * 8, 1032 * len(compressed))
        matrix_bytes = zlib.decompress(compressed, bufsize=bufsize)
        del compressed
        # the matrix wraps the decompressed bytes; astype copies only on a big-endian host
        matrix = np.frombuffer(matrix_bytes, dtype="<f8").reshape(count, dimension)
        matrix = matrix.astype(np.float64, copy=False)
    except (ValueError, zlib.error) as exc:  # binascii.Error and a wrong shape are ValueErrors
        raise SnapshotCorruptionError(f"snapshot {path} has a corrupt embedding matrix") from exc
    digest.update(matrix_bytes)
    content_digest = digest.hexdigest()
    if content_digest != header.get("content_digest"):
        raise SnapshotCorruptionError(f"snapshot {path} failed its content digest check")
    return CorpusSnapshot._from_parts(records, matrix, embedder_id, created_at, content_digest)
