"""Source ingestion into an embedded, frozen, ordered retrieval corpus.

One corpus item per top-level function or class definition: Python files are
read from their syntax tree, C-family files with one pass of a lexer that
counts only the braces outside comments, literals and preprocessor lines. The
embedded metadata is the concatenation of the item's signature, doc text, and
in-span comments.
"""

from __future__ import annotations

import ast
import base64
import bisect
import hashlib
import io
import itertools
import json
import logging
import operator
import os
import re
import secrets
import stat
import tokenize
import warnings
import weakref
import zlib
from array import array
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .embedding import EmbeddingProvider
from .errors import DimensionMismatchError, EmptyCorpusError, IngestError, SnapshotCorruptionError
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


@dataclass(frozen=True)
class CorpusItem:
    """One extracted top-level definition and its metadata.

    ``index`` is the item's position in the fixed corpus ordering; indices
    are unique and contiguous from 0 within a snapshot, and row ``index`` of
    the snapshot's matrix is the item's vector. Items compare and hash by
    their six metadata fields. ``embedding`` is not among them: inside a
    snapshot it is a read-only view of that row, and the package reads only
    the matrix.
    """

    index: int
    signature: str
    doc: str
    body: str
    source_path: str
    language: str
    embedding: Sequence[float] = field(compare=False)


_METADATA_NAMES = tuple(spec.name for spec in fields(CorpusItem) if spec.compare)
_METADATA_TYPES = {name: int if name == "index" else str for name in _METADATA_NAMES}


def _metadata(item: CorpusItem) -> dict:
    return {name: getattr(item, name) for name in _METADATA_NAMES}


def _checked_record(record, position: int) -> dict:
    """``record`` if it holds exactly the item metadata fields, each of its
    type, with ``index`` equal to ``position``; otherwise ValueError."""
    types = isinstance(record, dict) and {key: type(value) for key, value in record.items()}
    if types != _METADATA_TYPES or record["index"] != position:
        raise ValueError(f"record {position} must hold exactly index {position} and the str {_METADATA_NAMES[1:]}")
    return record


@dataclass(frozen=True, eq=False)
class CorpusSnapshot:
    """Immutable, digest-verified corpus of embedded items.

    The snapshot owns its embeddings as one read-only float64 ``(n,
    dimension)`` ``matrix`` whose row ``i`` is item ``i``'s vector; no other
    copy is read. It decides the rest: ``norms``, its read-only row L2 norms,
    is derived at construction, where a row whose norm is not finite raises
    ValueError, and ``dimension`` is its width. So a ``dataclasses.replace``
    of the matrix checks it again: one that is not 2-D with a row per item
    raises ValueError, and a writeable one is kept as a read-only,
    C-contiguous copy. ``items`` is a tuple in a built snapshot; in a loaded
    one it is a read-only sequence that reads each item from the snapshot
    file on every access and keeps none.
    """

    items: Sequence[CorpusItem]
    embedder_id: str
    created_at: str
    content_digest: str
    matrix: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _read_only_rows(self.matrix, len(self.items)))
        norms = finite_norms(self.matrix, "item {}".format)
        norms.flags.writeable = False
        object.__setattr__(self, "norms", norms)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def build(
        cls, records: Sequence[dict], matrix: np.typing.ArrayLike, embedder_id: str, created_at: str | None = None
    ) -> "CorpusSnapshot":
        """The snapshot of ``records``, each an item's metadata fields, and the
        ``(n, d)`` ``matrix`` whose row ``i`` embeds record ``i``. A record
        checks as a snapshot line does at load; the snapshot keeps a read-only
        copy of a writeable matrix, so the caller's stays writeable."""
        records = [_checked_record(record, position) for position, record in enumerate(records)]
        if not records:
            raise EmptyCorpusError("snapshot requires at least one item")
        matrix = _read_only_rows(matrix, len(records))
        digest = compute_content_digest(map(_metadata_line, records), matrix)
        items = tuple(CorpusItem(**record, embedding=row) for record, row in zip(records, matrix))
        return cls(items, embedder_id, created_at or utc_now_iso(), digest, matrix)

    def __len__(self) -> int:
        return len(self.items)


def _read_only_rows(matrix: np.typing.ArrayLike, count: int) -> np.ndarray:
    """``matrix`` as float64 if it is ``(count, d)``, else ValueError; a
    writeable matrix is replaced by a read-only, C-contiguous copy."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) != count:
        raise ValueError(f"a matrix of shape {matrix.shape} does not embed {count} records")
    if matrix.flags.writeable:
        matrix = np.array(matrix, order="C")
        matrix.flags.writeable = False
    return matrix


def finite_norms(rows: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """The L2 norm of each of ``rows``. The first whose norm is not finite (a NaN
    or infinite value, or a squared norm that overflows) raises ValueError naming
    it as ``name(position)``: a cosine over it would be NaN."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    non_finite = np.flatnonzero(~np.isfinite(norms))
    if non_finite.size:
        raise ValueError(f"{name(non_finite[0])} has a non-finite embedding norm")
    return norms


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
    does not parse raises ``SyntaxError``. C, C++, JavaScript and Java text is
    lexed once, skipping comments, literals and preprocessor lines. A brace block
    at depth 0 is a definition if its header (the code since the last depth-0
    ``;``, ``}`` or preprocessor line) holds a ``(`` or names a class, struct,
    interface, enum or union, unless it starts with a control keyword or holds an
    ``=`` outside brackets. ``namespace`` and ``extern "C"`` blocks are
    transparent. Unbalanced braces raise ``SyntaxError``. Unknown languages
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


# Lexemes of C-family text: comments, preprocessor lines and literals, whose braces do not count,
# then code braces and semicolons. Each branch starts with its own character, so a search skips other text in C.
_LEXEME_RE = re.compile(
    r"""//[^\n]* | /\*.*?(?:\*/|\Z)
    | \n[ \t]*\#[ \t]*(?:if|ifdef|ifndef|elif|else|endif|define|undef|include|import|pragma|error|warning|line)\b
      (?:\\\n|[^\n])*
    | "(?<=R")(?P<delimiter>[^()\\\s]*)\(.*?\)(?P=delimiter)" | \"\"\".*?\"\"\" | "(?:\\.|[^"\\\n])*"
    | '(?<![0-9]')(?:\\.|[^'\\\n])*' | `(?:\\.|[^`\\])*`
    | \{ | \} | ;""",
    re.DOTALL | re.VERBOSE,
)
_TRANSPARENT_RE = re.compile(r'(?:inline )?namespace\b|extern "C(?:\+\+)?"$')
_CONTROL_RE = re.compile(r"(?:if|else|for|while|do|switch|try|catch|finally)\b")
_TYPE_RE = re.compile(r"\b(?:class|struct|interface|enum|union)\b")
_OPERATOR_RE = re.compile(r"\boperator\s*[^\w\s(]+")
# a comma or a brace after a block at depth 0 continues a C++ member initialiser list
_INITIALISER_LIST_RE = re.compile(r"\s*[,{]")


def _extract_braced(text: str) -> list[RawDefinition]:
    # the leading newline lets a preprocessor line on line 1 match, and numbers lines from 1
    text = "\n" + text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    newlines = [match.start() for match in re.finditer("\n", text)]  # line n starts after newlines[n - 1]
    definitions: list[RawDefinition] = []
    transparent: list[int] = []  # offsets of the open namespace and extern "C" braces
    # the start of the code since the last depth-0 ; } { or directive, the depth in a depth-0 block, its brace
    header_from = depth = opened = 0
    for match in _LEXEME_RE.finditer(text):
        lexeme = match.group()
        if lexeme[0] in "/\"'`":  # a comment or a literal
            if depth and lexeme.startswith("//"):
                comments.append(lexeme[2:].strip())
            elif not depth and lexeme[0] == "/" and not text[header_from : match.start()].strip():
                header_from = match.end()  # a comment before a header is not part of it
            continue
        if depth:
            depth += (lexeme == "{") - (lexeme == "}")
            if depth or _INITIALISER_LIST_RE.match(text, match.end()):
                continue
            if _is_definition(signature):
                first = top = bisect.bisect_left(newlines, opened - len(text[header_from:opened].lstrip()))
                while top and lines[top - 1].strip().startswith(("//", "/*", "*")):  # the doc's lines
                    top -= 1
                doc = "\n".join(line.strip().lstrip("/*").rstrip("*/").strip() for line in lines[top:first])
                body = "\n".join(lines[first : bisect.bisect_left(newlines, match.start()) + 1])
                definitions.append(RawDefinition(signature, doc.strip(), body, tuple(comments)))
        elif lexeme == "}":
            if not transparent:
                raise SyntaxError("unmatched '}'", (None, bisect.bisect_left(newlines, match.start()), None, None))
            transparent.pop()
        elif lexeme == "{":
            header = text[header_from : match.start()]
            signature = " ".join(_LEXEME_RE.sub(lambda inner: " " if inner[0][0] == "/" else inner[0], header).split())
            if not _TRANSPARENT_RE.match(signature):
                depth, opened, comments = 1, match.start(), []
                continue
            transparent.append(match.start())
        header_from = match.end()
    if depth or transparent:
        line = bisect.bisect_left(newlines, transparent[0] if transparent else opened)
        raise SyntaxError("'{' was never closed", (None, line, None, None))
    return definitions


def _is_definition(signature: str) -> bool:
    """Whether a depth-0 block is a function or a type, not control flow or an initialiser."""
    depth = 0
    for char in _OPERATOR_RE.sub("operator", signature):
        depth = max(depth + (char in "([<") - (char in ")]>"), 0)
        if char == "=" and not depth:
            return False
    return not _CONTROL_RE.match(signature) and ("(" in signature or _TYPE_RE.search(signature) is not None)


def ingest(paths: Sequence[str | Path], embedder: EmbeddingProvider) -> CorpusSnapshot:
    """Ingest source files into a frozen snapshot.

    Each item's ``source_path`` is its file's path relative to the deepest
    directory that holds every input file, so a tree ingests to one content
    digest wherever it lies and however its paths are given. Items are ordered
    by (that path lexicographic, in-file position) and embedded from their
    concatenated signature, doc, and comments. Repeated ingestion of identical
    bytes with the same embedder yields an identical content digest.
    """
    if not paths:
        raise IngestError("no input paths given")
    absolute = [os.path.abspath(path) for path in paths]
    root = os.path.commonpath([os.path.dirname(path) for path in absolute])
    relative = [os.path.relpath(path, root) for path in absolute]
    records: list[dict] = []
    vectors = array("d")
    for source_path, path in sorted(zip(relative, paths), key=operator.itemgetter(0)):
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
            parts = (definition.signature, definition.doc, *definition.comments)
            vectors.extend(embed_metadata("\n".join(part for part in parts if part.strip()), embedder))
            records.append(
                {
                    "index": len(records),
                    "signature": definition.signature,
                    "doc": definition.doc,
                    "body": definition.body,
                    "source_path": source_path,
                    "language": language,
                }
            )
    if not records:
        raise EmptyCorpusError("no definitions extracted from the given paths")
    matrix = np.frombuffer(vectors, dtype=np.float64).reshape(len(records), embedder.dimension)
    return CorpusSnapshot.build(records, matrix, embedder.embedder_id)


def save_snapshot(snapshot: CorpusSnapshot, path: str | Path) -> None:
    """Persist a snapshot as a header line, one metadata line per item, one matrix line.

    The matrix line is the base64 text of the zlib-compressed little-endian
    float64 bytes of ``snapshot.matrix``. The file is written beside ``path``
    under a temporary name and then moved over it, so a snapshot already at
    ``path``, and any process reading it, never sees a partial write; if the
    save fails, the temporary file is removed and ``path`` is left as it was.
    A symbolic link at ``path`` is followed: the file it points to is replaced.
    """
    path = Path(os.path.realpath(path))
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "embedder_id": snapshot.embedder_id,
        "dimension": snapshot.dimension,
        "created_at": snapshot.created_at,
        "count": len(snapshot.items),
        "content_digest": snapshot.content_digest,
    }
    # "x" creates the file with the mode open(path, "wb") gives a new file
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    file = temporary.open("xb")
    try:
        with file:
            file.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for item in snapshot.items:
                file.write(_metadata_line(_metadata(item)) + b"\n")
            matrix = np.ascontiguousarray(snapshot.matrix, dtype="<f8")
            file.write(base64.b64encode(zlib.compress(matrix)) + b"\n")
            try:  # and the mode of a file it overwrites
                os.chmod(file.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def load_snapshot(path: str | Path) -> CorpusSnapshot:
    """Load and integrity-check a snapshot; any damage or digest mismatch raises.

    The file is read one line at a time: each metadata line is hashed into the
    content digest as it arrives, and only its offset, length and SHA-256 are
    kept; no line is decoded. The matrix line is decoded once into the bytes
    the snapshot's matrix wraps. The snapshot's items hold the file open and
    read each item from it on every access, checked against the hash kept at
    load. A line that passes the digest but is malformed, which only a
    hand-forged file holds, raises ``SnapshotCorruptionError`` then.
    Since items are read again by their offsets, ``path`` must be a regular,
    seekable file: a pipe or ``/dev/stdin`` does not load.
    """
    path = Path(path)
    try:
        # a buffer of several lines takes fewer reads than the default 8 KB
        with open(path, "rb", buffering=_READ_BUFFER) as file:
            return _read_snapshot(file, path)
    except OSError as exc:
        raise SnapshotCorruptionError(f"cannot read snapshot {path}: {exc}") from exc


def _read_snapshot(file: BinaryIO, path: Path) -> CorpusSnapshot:
    lines = _lines(file)
    _, first = next(lines, (None, None))
    if first is None:
        raise SnapshotCorruptionError(f"snapshot {path} is empty")
    try:
        header = json.loads(first.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise SnapshotCorruptionError(f"snapshot {path} has an unreadable header") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptionError(f"snapshot {path} is not an {SNAPSHOT_FORMAT} file")
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotCorruptionError(
            f"snapshot {path} has format version {header.get('version')!r}, not {SNAPSHOT_VERSION}; "
            "re-run `arcs index` to rebuild it"
        )
    try:
        count, dimension = int(header["count"]), int(header["dimension"])
        embedder_id, created_at = header["embedder_id"], header["created_at"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(f"snapshot {path} has a malformed header: {exc!r}") from exc
    if count < 1:
        raise SnapshotCorruptionError(f"snapshot {path} declares {count} items; a snapshot holds at least one")
    offsets, lengths, hashes = array("q"), array("q"), bytearray()

    def item_lines() -> Iterator[bytes]:
        """Up to ``count`` item lines, each kept in the arrays as it passes."""
        for offset, line in itertools.islice(lines, count):
            offsets.append(offset)
            lengths.append(len(line))
            hashes.extend(hashlib.sha256(line).digest())
            yield line

    digest = _metadata_hash(count, dimension, item_lines())
    _, matrix_line = next(lines, (None, None))
    after_header = len(offsets) + (matrix_line is not None) + sum(1 for _ in lines)
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
    # the items hold their own descriptor of the file, which ``file`` closes
    items = _LoadedItems(os.dup(file.fileno()), path, offsets, lengths, hashes, matrix)
    try:
        return CorpusSnapshot(items, embedder_id, created_at, content_digest, matrix)
    except ValueError as exc:  # a non-finite row, which only a hand-forged file holds
        items.close()
        raise SnapshotCorruptionError(f"snapshot {path}: {exc}") from exc


def _lines(file: BinaryIO) -> Iterator[tuple[int, bytes]]:
    """Each line of ``file`` that is not blank, as its offset in the file and its
    bytes without the line end; a CRLF line end reads as LF."""
    offset = file.tell()
    for line in file:
        start, offset = offset, offset + len(line)
        if not line.isspace():
            yield start, line.rstrip(b"\r\n")


_READ_BUFFER = 1 << 16
_HASH_SIZE = hashlib.sha256().digest_size


class _LoadedItems(Sequence[CorpusItem]):
    """The items of a loaded snapshot, each read from the snapshot file on access.

    The sequence holds a read-only descriptor of the file it was loaded from,
    closed when the sequence is collected, so replacing or deleting the path
    does not change it. Per item it keeps the offset, length and SHA-256 of its
    line, which passed the content digest at load, and its row of the verified
    ``matrix``. Each access reads the line again, checks its hash, and decodes
    a new item; nothing read is kept.
    """

    def __init__(self, fd: int, path: Path, offsets: array, lengths: array, hashes: bytearray, matrix: np.ndarray):
        self.fd = fd
        self.path = path
        self._offsets = offsets
        self._lengths = lengths
        self._hashes = hashes
        self.matrix = matrix
        self.close = weakref.finalize(self, os.close, fd)

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, position):
        row = range(len(self._offsets))[position]  # a range for a slice; negatives count from the end
        if isinstance(row, range):
            return tuple(map(self.__getitem__, row))
        line = os.pread(self.fd, self._lengths[row], self._offsets[row])
        if hashlib.sha256(line).digest() != self._hashes[row * _HASH_SIZE : (row + 1) * _HASH_SIZE]:
            raise _corrupt_line(self.fd, self.path, self._offsets[row])
        try:
            record = _checked_record(json.loads(line.decode("utf-8")), row)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise _corrupt_line(self.fd, self.path, self._offsets[row]) from exc
        return CorpusItem(**record, embedding=self.matrix[row])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(mine == theirs for mine, theirs in zip(self, other))


def _corrupt_line(fd: int, path: Path, offset: int) -> SnapshotCorruptionError:
    """The error naming the snapshot line that starts at ``offset`` in the file
    open on ``fd``, counted from 1 with blank lines."""
    line = os.pread(fd, offset, 0).count(b"\n") + 1
    return SnapshotCorruptionError(f"snapshot {path} line {line} is corrupt")
