"""Source ingestion into an embedded, frozen, ordered retrieval corpus.

One corpus item per top-level function or class definition, extracted with a
line/regex-level scanner. The embedded metadata is the concatenation of the
item's signature, doc text, and in-span comments.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .embedding import EmbeddingProvider
from .errors import (
    DimensionMismatchError,
    EmptyCorpusError,
    IngestError,
    SnapshotCorruptionError,
)
from .util import text_digest, utc_now_iso

log = logging.getLogger(__name__)

SNAPSHOT_FORMAT = "arcs-snapshot"
SNAPSHOT_VERSION = 1

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


@dataclass(frozen=True)
class CorpusItem:
    """One extracted top-level definition plus its metadata embedding.

    ``index`` is the item's position in the fixed corpus ordering; indices
    are unique and contiguous from 0 within a snapshot.
    """

    index: int
    signature: str
    doc: str
    body: str
    source_path: str
    language: str
    embedding: tuple[float, ...]


@dataclass(eq=False)
class CorpusSnapshot:
    """Immutable, digest-verified corpus of embedded items."""

    items: tuple[CorpusItem, ...]
    embedder_id: str
    dimension: int
    created_at: str
    content_digest: str

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
        return cls(
            items=items,
            embedder_id=embedder_id,
            dimension=dimension,
            created_at=created_at or utc_now_iso(),
            content_digest=compute_content_digest(items),
        )

    def __len__(self) -> int:
        return len(self.items)


def _item_record(item: CorpusItem) -> dict:
    return {
        "index": item.index,
        "signature": item.signature,
        "doc": item.doc,
        "body": item.body,
        "source_path": item.source_path,
        "language": item.language,
        "embedding": list(item.embedding),
    }


def _item_line(item: CorpusItem) -> str:
    return json.dumps(_item_record(item), sort_keys=True, separators=(",", ":"))


def compute_content_digest(items: Iterable[CorpusItem]) -> str:
    return text_digest("\n".join(_item_line(item) for item in items))


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
    definitions: list[RawDefinition] = []
    for ordinal, start in enumerate(starts):
        end = starts[ordinal + 1] if ordinal + 1 < len(starts) else len(lines)
        span = lines[start:end]
        while span and not span[-1].strip():
            span.pop()
        signature, inline_rest = _py_header_split(span[0])
        doc = ""
        if inline_rest:
            doc = _parse_string_literal([inline_rest], 0) or ""
        if not doc:
            body_lines = span[1:]
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
    """Persist a snapshot as a header line plus one JSON record per item."""
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "embedder_id": snapshot.embedder_id,
        "dimension": snapshot.dimension,
        "created_at": snapshot.created_at,
        "count": len(snapshot.items),
        "content_digest": snapshot.content_digest,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(_item_line(item) for item in snapshot.items)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_snapshot(path: str | Path) -> CorpusSnapshot:
    """Load and integrity-check a snapshot; digest mismatch raises."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotCorruptionError(f"cannot read snapshot {path}: {exc}") from exc
    lines = [line for line in raw.splitlines() if line.strip()]
    if not lines:
        raise SnapshotCorruptionError(f"snapshot {path} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SnapshotCorruptionError(f"snapshot {path} has an unreadable header") from exc
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptionError(f"snapshot {path} has unknown format {header.get('format')!r}")
    items: list[CorpusItem] = []
    for line_number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
            items.append(
                CorpusItem(
                    index=int(record["index"]),
                    signature=record["signature"],
                    doc=record["doc"],
                    body=record["body"],
                    source_path=record["source_path"],
                    language=record["language"],
                    embedding=tuple(float(x) for x in record["embedding"]),
                )
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SnapshotCorruptionError(f"snapshot {path} line {line_number} is corrupt") from exc
    if len(items) != header.get("count"):
        raise SnapshotCorruptionError(
            f"snapshot {path} holds {len(items)} items, header declares {header.get('count')}"
        )
    digest = compute_content_digest(items)
    if digest != header.get("content_digest"):
        raise SnapshotCorruptionError(f"snapshot {path} failed its content digest check")
    try:
        return CorpusSnapshot(
            items=tuple(items),
            embedder_id=header["embedder_id"],
            dimension=int(header["dimension"]),
            created_at=header["created_at"],
            content_digest=digest,
        )
    except KeyError as exc:
        raise SnapshotCorruptionError(f"snapshot {path} header lacks field {exc}") from exc
