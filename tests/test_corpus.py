from __future__ import annotations

import base64
import json
import zlib

import numpy as np
import pytest

from arcs.corpus import (
    CorpusSnapshot,
    extract_definitions,
    ingest,
    load_snapshot,
    save_snapshot,
)
from arcs.embedding import HashingEmbedder
from arcs.errors import (
    ArcsError,
    DimensionMismatchError,
    EmptyCorpusError,
    IngestError,
    SnapshotCorruptionError,
)

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
