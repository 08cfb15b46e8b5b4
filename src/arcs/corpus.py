"""Source ingestion into an embedded, frozen, ordered retrieval corpus.

One corpus item per top-level function or class definition: Python files are
read from their syntax tree, C-family files with a brace-matching line
scanner. The embedded metadata is the concatenation of the item's signature,
doc text, and in-span comments.
"""

from __future__ import annotations

import ast
import base64
import hashlib
import io
import json
import logging
import operator
import re
import struct
import tokenize
import warnings
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from itertools import islice
from typing import BinaryIO, Iterable, Sequence

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
    ``items`` is a tuple in a built snapshot; in a loaded one it is a
    read-only sequence that decodes each item from its line on first access.
    """

    items: Sequence[CorpusItem]
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
        # rows of a matrix over bytes, so read-only like it
        items = tuple(
            CorpusItem(*_metadata_values(record), embedding=row) for record, row in zip(records, matrix)
        )
        signatures = (item.signature for item in items)
        return cls._from_parts(items, signatures, matrix, embedder_id, created_at or utc_now_iso(), digest)

    @classmethod
    def _from_parts(
        cls,
        items: Sequence[CorpusItem],
        signatures: Iterable[str],
        matrix: np.ndarray,
        embedder_id: str,
        created_at: str,
        content_digest: str,
    ) -> "CorpusSnapshot":
        """The snapshot of ``items``, whose embeddings are the rows of the
        read-only ``matrix`` and whose signatures are ``signatures``, in order."""
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        norms.flags.writeable = False
        rows_by_name: dict[str, list[int]] = {}
        for row, signature in enumerate(signatures):
            rows_by_name.setdefault(signature_name(signature), []).append(row)
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

    Python text is parsed with the running interpreter's ``ast``, so text that
    does not parse raises ``SyntaxError``; C, C++, JavaScript and Java are
    scanned line by line for brace-delimited definitions. Unknown languages
    yield no definitions.
    """
    if language == "python":
        return _extract_python(text)
    if language in ("c", "cpp", "javascript", "java"):
        return _extract_braced(text)
    return []


def _py_signature(header_lines: Sequence[str]) -> str:
    """The signature of a def/class header: after its keywords, before the colon that ends it.

    The tokenizer finds that colon, so brackets and colons inside strings do not count.
    """
    depth = 0
    for token in tokenize.generate_tokens(io.StringIO("\n".join(header_lines)).readline):
        if token.string in ("(", "[", "{"):
            depth += 1
        elif token.string in (")", "]", "}"):
            depth -= 1
        elif token.string == ":" and depth == 0:
            row, col = token.start
            break
    lines = [*header_lines[: row - 1], header_lines[row - 1][:col]]
    return " ".join(line.strip() for line in lines).removeprefix("async").split(None, 1)[1].strip()


def _extract_python(text: str) -> list[RawDefinition]:
    """One definition per top-level def or class node; text that does not parse raises."""
    text = text.removeprefix("\ufeff")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # invalid escapes warn at parse time; the text never runs
        module = ast.parse(text)
    # ast counts lines at \n, \r\n and \r only, not at every str.splitlines break
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    definitions: list[RawDefinition] = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top = node.decorator_list[0].lineno if node.decorator_list else node.lineno
            span = lines[top - 1 : node.end_lineno]
            # the header's lines through the first body statement's, which may share one
            header = lines[node.lineno - 1 : node.body[0].lineno]
            doc = ast.get_docstring(node, clean=False) or ""
            definitions.append(
                RawDefinition(
                    signature=_py_signature(header),
                    doc="\n".join(line.strip() for line in doc.splitlines()).strip(),
                    body="\n".join(span),
                    comments=tuple(line.strip()[1:].strip() for line in span if line.lstrip().startswith("#")),
                )
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
        try:
            definitions = extract_definitions(text, language)
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            # ValueError: a NUL byte on Python 3.10; RecursionError and MemoryError
            # (the parser's stack limit): code nested too deep
            line = f", line {exc.lineno}" if getattr(exc, "lineno", None) else ""
            reason = getattr(exc, "msg", None) or repr(exc)
            raise IngestError(f"cannot parse input path {path}{line}: {reason}") from exc
        for definition in definitions:
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

    The file is read one line at a time: each metadata line is hashed as it
    arrives and kept undecoded, and the matrix line is decoded once into the
    bytes the snapshot's matrix wraps. Once the digest matches, ``rows_by_name``
    is built from the signature in each line, and each item is decoded the first
    time it is read. A line that passes the digest but is malformed, which only
    a hand-forged file holds, raises ``SnapshotCorruptionError`` then.
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
    if count < 1:
        raise SnapshotCorruptionError(f"snapshot {path} declares {count} items; a snapshot holds at least one")
    item_lines = list(islice(lines, count))
    digest = _metadata_hash(count, dimension, item_lines)
    matrix_line = next(lines, None)
    after_header = len(item_lines) + (matrix_line is not None) + sum(1 for _ in lines)
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
    matrix.flags.writeable = False
    items = _LoadedItems(item_lines, matrix, path)
    signatures = (items.line_signature(row, line) for row, line in enumerate(item_lines))
    return CorpusSnapshot._from_parts(items, signatures, matrix, embedder_id, created_at, content_digest)


_SIGNATURE_KEY = b',"signature":"'


class _LoadedItems(Sequence[CorpusItem]):
    """The items of a loaded snapshot, each decoded from its line on first access.

    The lines have passed the content digest. A decoded item takes its line's
    place, so the sequence holds each item once, as a line or as an item.
    """

    def __init__(self, lines: list[bytes], matrix: np.ndarray, path: Path):
        self._slots: list[bytes | CorpusItem] = lines
        self._matrix = matrix
        self._path = path

    def __len__(self) -> int:
        return len(self._slots)

    def __getitem__(self, position):
        row = range(len(self._slots))[position]  # a range for a slice; negatives count from the end
        if isinstance(row, range):
            return tuple(map(self.__getitem__, row))
        slot = self._slots[row]
        if isinstance(slot, bytes):
            slot = self._slots[row] = self._decode(row, slot)
        return slot

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(mine == theirs for mine, theirs in zip(self, other))

    def line_signature(self, row: int, line: bytes) -> str:
        """The signature in ``line``, item ``row``'s, read at its key without decoding the line.

        A saved line is canonical JSON: sorted keys, no spaces, ASCII only. Every
        quote inside a JSON string is escaped, so ``,"signature":"`` can occur only
        where the key is. The key comes late in sorted order, so it is sought from
        the end, and only the line's tail is decoded.
        """
        start = line.rfind(_SIGNATURE_KEY)
        try:
            if start < 0:
                raise ValueError("no signature key")
            tail = line[start + len(_SIGNATURE_KEY) :].decode("utf-8")
            return json.decoder.scanstring(tail, 0)[0]
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise self._corrupt(row) from exc

    def _decode(self, row: int, line: bytes) -> CorpusItem:
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise self._corrupt(row) from exc
        if (
            not isinstance(record, dict)
            or record.keys() != _METADATA_FIELDS
            or record["index"] != row
            or record["signature"] != self.line_signature(row, line)
        ):
            raise self._corrupt(row)
        return CorpusItem(*_metadata_values(record), embedding=self._matrix[row])

    def _corrupt(self, row: int) -> SnapshotCorruptionError:
        # the header is line 1
        return SnapshotCorruptionError(f"snapshot {self._path} line {row + 2} is corrupt")
