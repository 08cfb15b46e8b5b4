from __future__ import annotations

import base64
import importlib
import inspect
import json
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs import corpus
from arcs.corpus import (
    CorpusItem,
    CorpusSnapshot,
    compute_content_digest,
    extract_definitions,
    ingest,
    load_snapshot,
    save_snapshot,
    signature_name,
)
from arcs.embedding import HashingEmbedder
from arcs.errors import (
    ArcsError,
    DimensionMismatchError,
    EmptyCorpusError,
    IngestError,
    SnapshotCorruptionError,
)
from arcs.retrieval import RetrievalQuery, top_k

from conftest import THREE_FUNCTION_FILE
from helpers import make_item


def test_extractor_on_three_function_fixture():
    defs = extract_definitions(THREE_FUNCTION_FILE, "python")
    assert [d.signature for d in defs] == ["add(a, b)", "scale(values, factor)", "Accumulator(object)"]
    assert defs[0].doc == "sum"
    assert defs[1].doc.startswith("Multiply every value.")
    assert defs[1].comments == ("factor may be negative",)
    assert defs[2].doc == "Running total."
    assert defs[0].body.startswith("def add")


def test_decorators_stay_with_the_definition_below_them():
    text = (
        "import functools\n\n"
        "def a():\n    return 1\n\n"
        "@functools.cache\n@staticmethod\n"
        "def b(x):\n    \"\"\"Cached.\"\"\"\n    return x\n"
    )
    a, b = extract_definitions(text, "python")
    assert a.body == "def a():\n    return 1"
    assert b.body.startswith("@functools.cache\n@staticmethod\ndef b(x):")
    assert (b.signature, b.doc) == ("b(x)", "Cached.")


def test_def_line_inside_a_module_string_is_not_an_item():
    text = 'HELP = """\nUsage:\ndef not_a_function(): pass\n"""\n\n\ndef real():\n    return 1\n'
    assert [d.signature for d in extract_definitions(text, "python")] == ["real()"]


def test_module_code_after_a_definition_stays_out_of_it():
    text = 'def b():\n    # inside\n    return 2\n\n\nHELP = """\n# not part of b\n"""\n'
    (b,) = extract_definitions(text, "python")
    assert b.body == "def b():\n    # inside\n    return 2"
    assert b.comments == ("inside",)


def test_multi_line_header_gives_the_whole_signature():
    text = "def f(a,\n      b):\n    return a + b\n\n\ndef g(a,\n      b): return a\n"
    f, g = extract_definitions(text, "python")
    assert (f.signature, g.signature) == ("f(a, b)", "g(a, b)")


@pytest.mark.parametrize(
    "text, signature",
    [
        ('def g(a="):"): pass\n', 'g(a="):")'),
        ('def f(a="("):\n    return a\n', 'f(a="(")'),
        ("def h(a='{', b=2) -> \"x:y\":\n    return a\n", "h(a='{', b=2) -> \"x:y\""),
    ],
    ids=["colon_in_default", "bracket_in_default", "brace_and_colon_in_strings"],
)
def test_signature_ends_at_the_header_colon_outside_strings(text, signature):
    (item,) = extract_definitions(text, "python")
    assert item.signature == signature


def test_doc_keeps_the_tabs_inside_its_lines():
    (f,) = extract_definitions('def f():\n    """Columns:\ta\tb."""\n', "python")
    assert f.doc == "Columns:\ta\tb."


def test_comment_between_two_definitions_belongs_to_neither():
    text = "def a():\n    return 1\n\n\n# section\n\n\ndef b():\n    return 2\n"
    a, b = extract_definitions(text, "python")
    assert (a.body, b.body) == ("def a():\n    return 1", "def b():\n    return 2")
    assert a.comments == b.comments == ()


def _package_definitions():
    """(module path, name, object) of every function and class defined at top level in ``arcs``."""
    source_dir = Path(importlib.import_module("arcs").__file__).parent
    for path in sorted(source_dir.glob("*.py")):
        module = importlib.import_module("arcs" if path.stem == "__init__" else f"arcs.{path.stem}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == module.__name__:
                yield path, name, obj


def test_python_items_of_the_package_match_inspect_getsource():
    definitions = list(_package_definitions())
    assert len(definitions) > 100
    items_by_path = {}
    mismatched = []
    for path, name, obj in definitions:
        if path not in items_by_path:
            defs = extract_definitions(path.read_text(encoding="utf-8"), "python")
            items_by_path[path] = {signature_name(d.signature): d for d in defs}
        item = items_by_path[path].get(name)
        if item is None or item.body != inspect.getsource(obj).rstrip("\n"):
            mismatched.append(f"{path.name}:{name}")
    assert mismatched == []


@pytest.mark.parametrize(
    "text, line",
    [
        ("def ok():\n    return 1\n\ndef broken(:\n    pass\n", 4),
        ("def f():\n    return 1\x00\n", None),
        ("def f():\n    return " + "+".join(["1"] * 20_000) + "\n", None),
        ("def f():\n    return " + "-" * 10_000 + "1\n", None),
    ],
    ids=["syntax_error", "nul_byte", "long_operator_chain", "deep_unary_nesting"],
)
def test_python_file_that_does_not_parse_is_an_ingest_error(embedder, tmp_path, text, line):
    source = tmp_path / "broken.py"
    source.write_text(text, encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        ingest([str(source)], embedder)
    assert "broken.py" in str(caught.value)
    if line is not None:
        assert f"line {line}" in str(caught.value)


def test_invalid_escape_in_python_text_neither_warns_nor_stops_the_parse():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (f,) = extract_definitions("def f():\n    return '\\d'\n", "python")
    assert f.signature == "f()"


def test_lines_are_counted_as_the_parser_counts_them():
    # a form feed breaks a line for str.splitlines but not for the parser
    text = "def a():\r\n    return 1\r\n\x0c\r\ndef b():\r\n    return 2\r\n"
    a, b = extract_definitions(text, "python")
    assert (a.body, b.body) == ("def a():\n    return 1", "def b():\n    return 2")


def test_byte_order_mark_does_not_stop_the_parse():
    (f,) = extract_definitions("\ufeffdef f():\n    return 1\n", "python")
    assert (f.signature, f.body) == ("f()", "def f():\n    return 1")


def test_extractor_orders_items_in_file_order(corpus_dir, embedder):
    snap = ingest([str(corpus_dir / "alpha.py")], embedder)
    assert [item.index for item in snap.items] == [0, 1, 2]
    assert snap.items[0].signature == "add(a, b)"
    assert snap.items[1].signature == "scale(values, factor)"


def test_ingest_orders_by_path_then_position(corpus_dir, embedder):
    paths = [str(corpus_dir / "beta.py"), str(corpus_dir / "alpha.py")]
    snap = ingest(paths, embedder)
    # alpha.py sorts before beta.py regardless of argument order
    assert snap.items[0].source_path.endswith("alpha.py")
    assert snap.items[-1].source_path.endswith("beta.py")
    assert [item.index for item in snap.items] == list(range(len(snap.items)))


def test_ingest_is_deterministic(corpus_dir, embedder):
    paths = sorted(str(p) for p in corpus_dir.glob("*.py"))
    first = ingest(paths, embedder)
    second = ingest(paths, embedder)
    assert first.content_digest == second.content_digest
    assert first.items == second.items


def test_ingest_unreadable_path_names_it(embedder, tmp_path):
    missing = tmp_path / "nope.py"
    with pytest.raises(IngestError) as excinfo:
        ingest([str(missing)], embedder)
    assert "nope.py" in str(excinfo.value)


def test_ingest_zero_items_is_an_error(embedder, tmp_path):
    empty = tmp_path / "empty.py"
    empty.write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        ingest([str(empty)], embedder)


def test_embedder_breaking_its_dimension_is_a_package_error(corpus_dir):
    class ShortEmbedder(HashingEmbedder):
        def embed(self, text):
            return super().embed(text)[:-1]

    with pytest.raises(DimensionMismatchError) as caught:
        ingest([str(corpus_dir / "alpha.py")], ShortEmbedder(8))
    assert isinstance(caught.value, ArcsError)


def test_language_tag_recorded_for_c_sources(embedder, tmp_path):
    source = tmp_path / "strings.c"
    source.write_text(
        "// join two strings\n"
        "int join(char *a, char *b) {\n"
        "    return 0; // no-op\n"
        "}\n",
        encoding="utf-8",
    )
    snap = ingest([str(source)], embedder)
    assert len(snap.items) == 1
    item = snap.items[0]
    assert item.language == "c"
    assert "join" in item.signature
    assert item.doc == "join two strings"


def test_snapshot_round_trip(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    assert loaded.content_digest == snapshot.content_digest
    assert loaded.items == snapshot.items
    assert loaded.embedder_id == snapshot.embedder_id
    assert loaded.dimension == snapshot.dimension
    assert loaded.created_at == snapshot.created_at


def test_truncated_snapshot_is_corrupt(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def test_tampered_snapshot_fails_digest(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("add", "sub", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def test_hundred_item_snapshot_preserves_order(tmp_path):
    embedder = HashingEmbedder(dimension=16)
    items = [make_item(i, embedder.embed(f"function number {i}")) for i in range(100)]
    snap = CorpusSnapshot.build(items, embedder.embedder_id, 16)
    path = tmp_path / "big.snap"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    assert [item.index for item in loaded.items] == list(range(100))


def test_build_rejects_gapped_indices():
    embedder = HashingEmbedder(dimension=8)
    items = [make_item(0, embedder.embed("a")), make_item(2, embedder.embed("b"))]
    with pytest.raises(ValueError):
        CorpusSnapshot.build(items, embedder.embedder_id, 8)


def test_snapshot_items_share_one_read_only_matrix(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    for snap in (snapshot, load_snapshot(path)):
        assert snap.matrix.shape == (len(snap), snap.dimension)
        assert snap.matrix.flags.c_contiguous
        with pytest.raises(ValueError):
            snap.matrix[0, 0] = 1.0
        for item in snap.items:
            assert np.shares_memory(item.embedding, snap.matrix)


@pytest.mark.parametrize("version", [1, 99, None])
def test_snapshot_of_another_version_is_rejected(snapshot, tmp_path, version):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["version"] = version
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError) as caught:
        load_snapshot(path)
    if version == 1:
        assert "version 1" in str(caught.value) and "arcs index" in str(caught.value)


def test_damaged_matrix_line_is_corrupt(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    one_float = base64.b64encode(zlib.compress(bytes(8))).decode("ascii")
    for damaged in (lines[-1][:-8], "not base64!", lines[-1][:16], one_float):
        path.write_text("\n".join([*lines[:-1], damaged]) + "\n", encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError):
            load_snapshot(path)


@pytest.mark.parametrize("dimension", [-3, 10**15, "one_more"])
def test_header_dimension_that_does_not_fit_the_matrix_is_corrupt(snapshot, tmp_path, dimension):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["dimension"] = header["dimension"] + 1 if dimension == "one_more" else dimension
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data.replace(b"}\n{", b"}\n\n \t\n{"),
    ],
    ids=["crlf", "blank_lines_between_items"],
)
def test_reformatted_line_breaks_load_to_the_same_snapshot(snapshot, tmp_path, rewrite):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    path.write_bytes(rewrite(path.read_bytes()))
    loaded = load_snapshot(path)
    assert loaded.content_digest == snapshot.content_digest
    assert loaded.items == snapshot.items


def _forge(path, snapshot, item_lines, matrix) -> None:
    """Save ``snapshot`` with ``item_lines`` and ``matrix`` in place of its own,
    and the header's count and digest recomputed to match them."""
    save_snapshot(snapshot, path)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    header.update(count=len(item_lines), content_digest=compute_content_digest(item_lines, matrix))
    matrix_line = base64.b64encode(zlib.compress(np.ascontiguousarray(matrix, dtype="<f8")))
    path.write_bytes(b"\n".join([json.dumps(header, sort_keys=True).encode(), *item_lines, matrix_line]) + b"\n")


def test_snapshot_without_items_is_corrupt(snapshot, tmp_path):
    path = tmp_path / "empty.snap"
    _forge(path, snapshot, [], np.zeros((0, snapshot.dimension)))
    with pytest.raises(SnapshotCorruptionError) as caught:
        load_snapshot(path)
    assert "0 items" in str(caught.value)


def test_damaged_item_line_fails_the_digest_at_load(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][: len(lines[2]) // 2]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SnapshotCorruptionError, match="content digest"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "forge",
    [
        lambda line: line.replace(b'"index":1', b'"index":7', 1),
        lambda line: line[:-1] + b',"z":0}',
    ],
    ids=["wrong_index", "extra_key"],
)
def test_forged_item_line_loads_and_raises_on_first_access(snapshot, tmp_path, forge):
    path = tmp_path / "forged.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")[1 : 1 + len(snapshot)]
    lines[1] = forge(lines[1])
    _forge(path, snapshot, lines, snapshot.matrix)
    loaded = load_snapshot(path)
    assert loaded.items[0] == snapshot.items[0]
    for _ in range(2):
        with pytest.raises(SnapshotCorruptionError, match="line 3 is corrupt"):
            loaded.items[1]
    assert loaded.items[-1] == snapshot.items[-1]


def test_a_line_without_the_signature_key_is_corrupt_at_load(snapshot, tmp_path):
    path = tmp_path / "forged.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")[1 : 1 + len(snapshot)]
    lines[2] = lines[2].replace(b',"signature":"', b',"signature": "', 1)
    _forge(path, snapshot, lines, snapshot.matrix)
    with pytest.raises(SnapshotCorruptionError, match="line 4 is corrupt"):
        load_snapshot(path)


def test_a_query_decodes_only_the_items_it_returns(tmp_path, monkeypatch):
    embedder = HashingEmbedder(dimension=32)
    items = [make_item(i, embedder.embed(f"function number {i}")) for i in range(200)]
    path = tmp_path / "corpus.snap"
    save_snapshot(CorpusSnapshot.build(items, embedder.embedder_id, 32), path)
    parsed = []
    loads = json.loads
    monkeypatch.setattr(corpus.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    loaded = load_snapshot(path)
    result = top_k(RetrievalQuery("function number 7", 3), loaded, embedder, frozenset({"item_7"}))
    assert 7 not in result.indices()
    # the header and the three items returned
    assert len(parsed) <= 1 + 3


def test_loaded_items_read_like_the_built_tuple(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path).items
    assert loaded[-1] == snapshot.items[-1]
    assert loaded[1:3] == snapshot.items[1:3]
    assert list(loaded) == list(snapshot.items)
    assert loaded == snapshot.items and snapshot.items == loaded
    assert loaded == list(snapshot.items)
    assert loaded != snapshot.items[:-1]
    assert loaded is not None and loaded != "text"
    with pytest.raises(IndexError):
        loaded[len(snapshot)]


# quotes, backslashes, commas, the signature key itself and non-ASCII text
_AWKWARD_TEXT = st.lists(
    st.sampled_from(['"', "\\", ",", ":", ',"signature":"', '","signature":"', "(", " ", "*", "\u00e9", "\u2603", "\n", "f", "_"]),
    max_size=10,
).map("".join) | st.text(max_size=12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.lists(st.tuples(_AWKWARD_TEXT, _AWKWARD_TEXT, _AWKWARD_TEXT), min_size=1, max_size=4))
def test_names_read_from_saved_lines_are_the_names_of_their_signatures(texts):
    items = [
        CorpusItem(i, signature, doc, body, "src.py", "python", embedding=(1.0, float(i)))
        for i, (signature, doc, body) in enumerate(texts)
    ]
    built = CorpusSnapshot.build(items, "hash2", 2, created_at="2026-01-01T00:00:00+00:00")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.snap"
        save_snapshot(built, path)
        lines = path.read_bytes().splitlines()[1:-1]
        loaded = load_snapshot(path)
    expected: dict[str, list[int]] = {}
    for row, line in enumerate(lines):
        expected.setdefault(signature_name(json.loads(line)["signature"]), []).append(row)
    assert loaded.rows_by_name == expected
    assert loaded.items == built.items


def test_invalid_utf8_in_an_item_line_is_corrupt(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"doc":"', b'"doc":"\xff', 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(SnapshotCorruptionError):
        load_snapshot(path)


def _megabyte_snapshot() -> CorpusSnapshot:
    """About 1 MB on disk: 1,000 items with 21-line bodies and 32-dimension embeddings."""
    embedder = HashingEmbedder(dimension=32)
    items = []
    for index in range(1000):
        signature = f"handler_{index}(request, options)"
        body = "\n".join(
            [f"def {signature}:"]
            + [f"    value_{line} = request.field_{line} + {index}" for line in range(20)]
        )
        items.append(
            CorpusItem(
                index=index,
                signature=signature,
                doc=f"Handle request number {index} with the given options.",
                body=body,
                source_path=f"pkg/module_{index % 7}.py",
                language="python",
                embedding=tuple(embedder.embed(signature)),
            )
        )
    return CorpusSnapshot.build(items, embedder.embedder_id, embedder.dimension)


def _traced_load(path) -> tuple[CorpusSnapshot, int, int]:
    """``load_snapshot(path)``, the bytes it keeps and its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_snapshot(path)
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return loaded, kept, peak


def test_snapshot_load_peaks_below_two_and_a_half_file_sizes(tmp_path):
    path = tmp_path / "big.snap"
    save_snapshot(_megabyte_snapshot(), path)
    size = path.stat().st_size
    assert 900_000 < size < 1_100_000
    loaded, kept, peak = _traced_load(path)
    assert len(loaded) == 1000
    assert peak <= 2.5 * size, f"load peaked at {peak / size:.2f}x the file size"
    # streamed: beyond the snapshot it returns, the load holds little at once
    assert peak - kept <= 0.2 * size, f"load held {(peak - kept) / size:.2f}x the file size transiently"


def test_snapshot_load_holds_its_matrix_once(tmp_path):
    # 2 MB of sparse floats compress to a few KB, so a second copy of the
    # matrix would dominate what the load holds beyond its result
    embedder = HashingEmbedder(dimension=4096)
    items = [make_item(i, embedder.embed(f"function number {i}")) for i in range(64)]
    path = tmp_path / "wide.snap"
    save_snapshot(CorpusSnapshot.build(items, embedder.embedder_id, 4096), path)
    loaded, kept, peak = _traced_load(path)
    matrix = loaded.matrix.nbytes
    assert peak - kept <= 0.2 * matrix, f"load held {(peak - kept) / matrix:.2f}x the matrix transiently"
