from __future__ import annotations

import ast
import base64
import dataclasses
import importlib
import inspect
import json
import os
import re
import stat
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
)
from arcs.embedding import HashingEmbedder
from arcs.errors import (
    ArcsError,
    DimensionMismatchError,
    EmptyCorpusError,
    IngestError,
    SnapshotCorruptionError,
)
from arcs.retrieval import RetrievalQuery, signature_name, top_k

from conftest import THREE_FUNCTION_FILE
from helpers import make_record, snapshot_from_embeddings


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
    "name, text, line",
    [
        ("broken.py", "def ok():\n    return 1\n\ndef broken(:\n    pass\n", 4),
        ("broken.py", "def f():\n    return 1\x00\n", None),
        ("broken.py", "def f():\n    return " + "+".join(["1"] * 20_000) + "\n", None),
        ("broken.py", "def f():\n    return " + "-" * 10_000 + "1\n", None),
        ("broken.c", "int ok(void) {\n    return 1;\n}\n\nint open(void) {\n    if (x) {\n        y();\n    }\n", 5),
        ("broken.c", "int ok(void) {\n    return 1;\n}\n    }\nint next(void) {\n    return 2;\n}\n", 4),
    ],
    ids=["syntax_error", "nul_byte", "long_operator_chain", "deep_unary_nesting", "unclosed_brace", "stray_brace"],
)
def test_python_file_that_does_not_parse_is_an_ingest_error(embedder, tmp_path, name, text, line):
    source = tmp_path / name
    source.write_text(text, encoding="utf-8")
    with pytest.raises(IngestError) as caught:
        ingest([str(source)], embedder)
    assert name in str(caught.value)
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


@pytest.mark.parametrize(
    "language, text, items",
    [
        (
            "c",
            'int a(void) {\n    puts("}");\n    return 1;\n}\n',
            [("int a(void)", 'int a(void) {\n    puts("}");\n    return 1;\n}')],
        ),
        (
            "c",
            "int a(void) {\n    /* } */\n    return 1;\n}\n",
            [("int a(void)", "int a(void) {\n    /* } */\n    return 1;\n}")],
        ),
        (
            "c",
            "int a(void) {\n    char c = '{';\n    return c;\n}\n\nint b(void) {\n    return 2;\n}\n",
            [
                ("int a(void)", "int a(void) {\n    char c = '{';\n    return c;\n}"),
                ("int b(void)", "int b(void) {\n    return 2;\n}"),
            ],
        ),
        (
            "java",
            "public class Foo {\n    public int bar(int x) {\n        return x;\n    }\n}\n",
            [("public class Foo", "public class Foo {\n    public int bar(int x) {\n        return x;\n    }\n}")],
        ),
        (
            "c",
            "static int\nsum4(int a,\n     int b,\n     int c,\n     int d)\n{\n    return a + b + c + d;\n}\n",
            [
                (
                    "static int sum4(int a, int b, int c, int d)",
                    "static int\nsum4(int a,\n     int b,\n     int c,\n     int d)\n{\n    return a + b + c + d;\n}",
                )
            ],
        ),
        (
            "cpp",
            "template <typename T>\nT larger(T a, T b) {\n    return a > b ? a : b;\n}\n",
            [
                (
                    "template <typename T> T larger(T a, T b)",
                    "template <typename T>\nT larger(T a, T b) {\n    return a > b ? a : b;\n}",
                )
            ],
        ),
        (
            "cpp",
            "#include <cstdio>\n\nnamespace ns {\n\n    int twice(int x) {\n        return 2 * x;\n    }\n\n}\n",
            [("int twice(int x)", "    int twice(int x) {\n        return 2 * x;\n    }")],
        ),
        (
            "cpp",
            "#define OPEN {\n#define CLOSE \\\n    }\nconst char *f(void) {\n"
            "    int n = 1'000; char c = '}';\n    return R\"x(})\")x\";\n}\n",
            [("const char *f(void)", "const char *f(void) {\n    int n = 1'000; char c = '}';\n    return R\"x(})\")x\";\n}")],
        ),
        (
            "java",
            'static String f() {\n    return """\n        }\n        """;\n}\n',
            [("static String f()", 'static String f() {\n    return """\n        }\n        """;\n}')],
        ),
        (
            "javascript",
            "class A {\n  #m() {\n    return `}${1}`;\n  }\n}\n",
            [("class A", "class A {\n  #m() {\n    return `}${1}`;\n  }\n}")],
        ),
    ],
    ids=[
        "brace_in_a_string",
        "brace_in_a_block_comment",
        "brace_in_a_char",
        "method_inside_a_java_class",
        "header_over_five_lines",
        "template_line",
        "function_inside_a_namespace",
        "brace_in_directives_a_raw_string_and_a_char_after_a_digit_separator",
        "brace_in_a_java_text_block",
        "brace_in_a_template_literal_and_a_private_method",
    ],
)
def test_braced_definitions_are_cut_at_the_braces_of_their_code(language, text, items):
    assert [(d.signature, d.body) for d in extract_definitions(text, language)] == items


def test_which_braced_blocks_are_items():
    text = (
        'extern "C" {\n'
        "int table[] = {1, 2};\n"
        "struct point { int x; };\n"
        "Foo::Foo(int x) : a_(x), b_{x} {\n    run();\n}\n"
        "bool operator==(const Foo& a, const Foo& b) { return true; }\n"
        "}\n"
    )
    signatures = [d.signature for d in extract_definitions(text, "cpp")]
    assert signatures == [
        "struct point",
        "Foo::Foo(int x) : a_(x), b_{x}",
        "bool operator==(const Foo& a, const Foo& b)",
    ]
    assert extract_definitions("if (ready) {\n    go();\n}\nconst f = function(x) {\n    return x;\n};\n", "javascript") == []


_BRACED_NOISE = st.text(alphabet="{}()\"'/*;\\ ab", max_size=10)


def _braced_definition(return_type: str, name: str, string: str, char: str, comment: str, block: str) -> str:
    """A definition shaped like the benchmark's generated C and Java ones, holding the given
    literal and comment texts."""
    escaped = string.replace("\\", "\\\\").replace('"', '\\"')
    return "\n".join(
        [
            f"/* {block} */",
            f"{return_type} {name}(int count, int limit) {{",
            f"    // {comment}",
            f"    /* {block} */",
            f'    puts("{escaped}");',
            f"    int mark = '{char}';",
            "    int total_rows = merge_rows(count, 12);",
            "    return total_rows;",
            "}",
        ]
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from([("c", "int"), ("java", "static int")]),  # the language and its return type
    st.lists(
        st.tuples(
            st.sampled_from(["parseRow", "readBuffer", "mergeSortedRows", "scan"]),
            _BRACED_NOISE,
            st.sampled_from(["{", "}", '"', "\\'", "\\\\", "/", "*", ";"]),
            # a backslash at the end of a // comment would continue it onto the next line
            _BRACED_NOISE.map(lambda text: text.replace("\\", "")),
            _BRACED_NOISE.filter(lambda text: "*/" not in text),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_braces_quotes_and_comment_marks_in_literals_and_comments_do_not_move_items(shape, definitions):
    language, return_type = shape

    def extract(with_noise: bool):
        texts = [
            _braced_definition(return_type, name, *(noise if with_noise else ("", "x", "", "")))
            for name, *noise in definitions
        ]
        return [(d.signature, d.body.count("\n")) for d in extract_definitions("\n\n\n".join(texts) + "\n", language)]

    items = extract(with_noise=True)
    assert items == extract(with_noise=False)
    assert len(items) == len(definitions)


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
    rows = [embedder.embed(f"function number {i}") for i in range(100)]
    snap = CorpusSnapshot.build([make_record(i) for i in range(100)], rows, embedder.embedder_id)
    path = tmp_path / "big.snap"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    assert [item.index for item in loaded.items] == list(range(100))


@pytest.mark.parametrize(
    "records, rows, message",
    [
        ([{key: value for key, value in make_record(0).items() if key != "doc"}], [(1.0, 0.0)], "record 0"),
        ([{**make_record(0), "embedding": [1.0, 0.0]}], [(1.0, 0.0)], "record 0"),
        ([{**make_record(0), "doc": None}], [(1.0, 0.0)], "record 0"),
        ([{**make_record(0), "index": 0.0}], [(1.0, 0.0)], "record 0"),
        ([make_record(0), make_record(1)], [(1.0, 0.0)], "does not embed 2 records"),
        ([make_record(0)], [(1.0, 0.0), (0.0, 1.0)], "does not embed 1 records"),
        ([make_record(0)], [1.0, 0.0], "does not embed 1 records"),
    ],
    ids=["missing_field", "extra_field", "ill_typed_field", "float_index", "too_few_rows", "too_many_rows",
         "one_dimensional"],
)
def test_build_refuses_a_malformed_record_or_a_matrix_of_another_row_count(records, rows, message):
    with pytest.raises(ValueError, match=message):
        CorpusSnapshot.build(records, rows, "hash2")


def test_build_keeps_its_own_read_only_copy_of_the_matrix():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    snap = CorpusSnapshot.build([make_record(0), make_record(1)], rows, "hash2")
    assert rows.flags.writeable and not snap.matrix.flags.writeable
    assert snap.matrix.flags.c_contiguous and snap.matrix.dtype == np.float64
    rows[0, 0] = 5.0
    assert snap.matrix[0, 0] == 1.0 and snap.items[0].embedding[0] == 1.0


def test_build_rejects_gapped_indices():
    embedder = HashingEmbedder(dimension=8)
    rows = [embedder.embed("a"), embedder.embed("b")]
    with pytest.raises(ValueError):
        CorpusSnapshot.build([make_record(0), make_record(2)], rows, embedder.embedder_id)


@pytest.mark.parametrize(
    "row",
    [(1e200, 2e200, 3e200), (np.nan, 0.0, 1.0), (0.0, -np.inf, 0.0)],
    ids=["norm_overflows", "nan", "infinite"],
)
def test_non_finite_embeddings_are_rejected_at_build_and_at_load(tmp_path, row):
    records, rows = [make_record(i) for i in range(3)], [(1.0, 0.0, 0.0), row, (0.0, 1.0, 0.0)]
    with pytest.raises(ValueError, match="item 1 has a non-finite embedding"):
        CorpusSnapshot.build(records, rows, "hash3")
    finite = CorpusSnapshot.build(records, [(1.0, 0.0, float(i)) for i in range(3)], "hash3")
    path = tmp_path / "forged.snap"
    save_snapshot(finite, path)
    _forge(path, finite, path.read_bytes().split(b"\n")[1:4], np.array(rows))
    with pytest.raises(SnapshotCorruptionError, match="item 1 has a non-finite embedding"):
        load_snapshot(path)


def test_replacing_the_matrix_derives_and_checks_its_norms_again():
    embedder = HashingEmbedder(dimension=2)
    x, y = embedder.embed("query")
    snap = CorpusSnapshot.build([make_record(0), make_record(1)], [(x, y), (-y, x)], embedder.embedder_id)
    doubled = dataclasses.replace(snap, matrix=2 * snap.matrix)
    scores = [score for _, score in top_k(RetrievalQuery("query", 2), doubled, embedder).items]
    assert scores == pytest.approx([1.0, 0.0])
    assert np.array_equal(doubled.norms, 2 * snap.norms) and not doubled.norms.flags.writeable
    assert doubled.dimension == 2
    with pytest.raises(ValueError, match="item 1 has a non-finite embedding"):
        dataclasses.replace(snap, matrix=np.array([[x, y], [np.inf, 0.0]]))
    with pytest.raises(ValueError, match="norms"):
        dataclasses.replace(snap, norms=snap.norms)


def test_a_replaced_matrix_must_embed_every_item_and_is_kept_read_only():
    snap = CorpusSnapshot.build([make_record(i) for i in range(3)], [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)], "hash2")
    for matrix in (snap.matrix[:1], snap.matrix[0], snap.matrix[np.newaxis]):
        with pytest.raises(ValueError, match=re.escape(f"a matrix of shape {matrix.shape} does not embed 3 records")):
            dataclasses.replace(snap, matrix=matrix)
    for rows in (2 * snap.matrix, np.asfortranarray(2 * snap.matrix), (2 * snap.matrix).astype(np.float32)):
        doubled = dataclasses.replace(snap, matrix=rows)
        assert not doubled.matrix.flags.writeable and doubled.matrix.flags.c_contiguous
        assert doubled.matrix.dtype == np.float64 and not np.shares_memory(doubled.matrix, rows)
        rows[0, 0] = 5.0
        assert doubled.matrix[0, 0] == 2.0
    assert dataclasses.replace(snap, matrix=snap.matrix).matrix is snap.matrix


def test_items_compare_and_hash_by_their_metadata():
    first, second = (CorpusItem(**make_record(0), embedding=row) for row in ((1.0, 0.0), np.array([0.0, 1.0])))
    assert first == second and hash(first) == hash(second)
    assert first != CorpusItem(**make_record(0, doc="other"), embedding=(1.0, 0.0))


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


def test_no_module_of_the_package_reads_an_items_embedding():
    # every vector is read from the snapshot's matrix; the field is kept for callers outside
    package = Path(corpus.__file__).parent
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "embedding"
    ]
    assert readers == []


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


@pytest.mark.parametrize("key, value", [("embedder_id", 5), ("created_at", 7)])
def test_header_text_field_that_is_not_a_string_is_corrupt(snapshot, tmp_path, key, value):
    # the header is outside the content digest, so only its own check catches this
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header[key] = value
    lines[0] = json.dumps(header, sort_keys=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError, match="malformed header"):
        load_snapshot(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("count", 2.9, "count: expected int, got 2.9"),
        ("count", "2", "count: expected int, got '2'"),
        ("dimension", 384.0, "dimension: expected int, got 384.0"),
        ("version", 2.0, "version: expected int, got 2.0"),
        ("comment", "", "unknown key 'comment'"),
    ],
)
def test_header_field_is_read_strictly(tmp_path, key, value, message):
    # the snapshot holds 2 items of 384 floats, so int() would read each number as the true one
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot_from_embeddings(np.eye(2, 384)), path)
    header, rest = path.read_text(encoding="utf-8").split("\n", 1)
    header = {**json.loads(header), key: value}
    path.write_text(json.dumps(header, sort_keys=True) + "\n" + rest, encoding="utf-8")
    with pytest.raises(SnapshotCorruptionError, match=f"has a malformed header: .*{re.escape(message)}$"):
        load_snapshot(path)


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


def _wrong_index(line: bytes) -> bytes:
    return line.replace(b'"index":1', b'"index":7', 1)


@pytest.mark.parametrize(
    ("forge", "blank_lines", "line"),
    [
        (_wrong_index, 0, 3),
        (lambda line: line[:-1] + b',"z":0}', 0, 3),
        (lambda line: json.dumps({**json.loads(line), "signature": 5}).encode(), 0, 3),
        # blank lines are skipped at load but counted in the line named
        (_wrong_index, 2, 5),
    ],
    ids=["wrong_index", "extra_key", "signature_not_text", "wrong_index_after_two_blank_lines"],
)
def test_forged_item_line_loads_and_raises_on_first_access(snapshot, tmp_path, forge, blank_lines, line):
    path = tmp_path / "forged.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")[1 : 1 + len(snapshot)]
    lines[1] = forge(lines[1])
    _forge(path, snapshot, lines, snapshot.matrix)
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" * (1 + blank_lines) + rest)
    loaded = load_snapshot(path)
    assert loaded.items[0] == snapshot.items[0]
    for _ in range(2):
        with pytest.raises(SnapshotCorruptionError, match=f"line {line} is corrupt"):
            loaded.items[1]
    assert loaded.items[-1] == snapshot.items[-1]


def _other_snapshot(snapshot: CorpusSnapshot) -> CorpusSnapshot:
    """A one-item snapshot with ``snapshot``'s embedder and another digest."""
    row = HashingEmbedder(snapshot.dimension).embed("another corpus")
    return CorpusSnapshot.build([make_record(0)], [row], snapshot.embedder_id)


def test_loaded_items_read_after_their_path_is_replaced_and_removed(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    other = tmp_path / "other.snap"
    save_snapshot(_other_snapshot(snapshot), other)
    os.replace(other, path)
    path.unlink()
    assert list(loaded.items) == list(snapshot.items)


def test_an_item_line_changed_after_load_is_corrupt_when_read(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    data = path.read_bytes()
    # the first byte of item 1's body, on line 3, rewritten in place
    line_3 = data.index(b"\n", data.index(b"\n") + 1) + 1
    position = data.index(b'"body":"', line_3) + len(b'"body":"')
    with path.open("r+b") as file:
        file.seek(position)
        file.write(b"X" if data[position : position + 1] != b"X" else b"Y")
    for _ in range(2):
        with pytest.raises(SnapshotCorruptionError, match="line 3 is corrupt"):
            loaded.items[1]
    assert loaded.items[0] == snapshot.items[0]
    assert loaded.items[2:] == snapshot.items[2:]


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts descriptors in /proc/self/fd")
def test_loaded_and_failed_snapshots_close_their_files(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    truncated = tmp_path / "truncated.snap"
    truncated.write_bytes(path.read_bytes()[:-40])
    # fails after the digest passes, the last check before the snapshot is returned
    non_finite = tmp_path / "non_finite.snap"
    matrix = np.array(snapshot.matrix)
    matrix[1, 0] = np.nan
    _forge(non_finite, snapshot, path.read_bytes().split(b"\n")[1 : 1 + len(snapshot)], matrix)
    open_files = len(os.listdir("/proc/self/fd"))
    for _ in range(50):
        loaded = load_snapshot(path)
        assert loaded.items[0] == snapshot.items[0]
        loaded = None
        for damaged in (truncated, non_finite):
            with pytest.raises(SnapshotCorruptionError):
                load_snapshot(damaged)
    assert len(os.listdir("/proc/self/fd")) == open_files


def test_a_failed_save_leaves_the_previous_snapshot(snapshot, tmp_path, monkeypatch):
    (tmp_path / "saved").mkdir()
    path = tmp_path / "saved" / "corpus.snap"
    save_snapshot(snapshot, path)

    def fail(data, *args, **kwargs):
        raise OSError("no space left for the matrix")

    monkeypatch.setattr(zlib, "compress", fail)
    with pytest.raises(OSError, match="no space left"):
        save_snapshot(_other_snapshot(snapshot), path)
    monkeypatch.undo()
    assert load_snapshot(path).content_digest == snapshot.content_digest
    assert list(path.parent.iterdir()) == [path]


def test_saving_over_a_loaded_snapshot_leaves_it_readable(snapshot, tmp_path):
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    loaded = load_snapshot(path)
    other = _other_snapshot(snapshot)
    save_snapshot(other, path)
    assert load_snapshot(path).content_digest == other.content_digest
    assert list(loaded.items) == list(snapshot.items)


def test_saving_over_a_symlink_replaces_the_file_it_points_to(snapshot, tmp_path):
    target = tmp_path / "store" / "corpus.snap"
    target.parent.mkdir()
    save_snapshot(snapshot, target)
    link = tmp_path / "corpus.snap"
    link.symlink_to(target)
    other = _other_snapshot(snapshot)
    save_snapshot(other, link)
    assert link.is_symlink()
    assert load_snapshot(target).content_digest == other.content_digest
    assert sorted(p.name for p in target.parent.iterdir()) == ["corpus.snap"]


def test_save_gives_a_new_file_the_mode_open_gives_and_keeps_an_old_one(snapshot, tmp_path):
    with (tmp_path / "reference").open("wb"):
        pass
    path = tmp_path / "corpus.snap"
    save_snapshot(snapshot, path)
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    path.chmod(0o640)
    save_snapshot(snapshot, path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_a_well_formed_line_not_in_canonical_form_loads_as_its_record(snapshot, tmp_path):
    path = tmp_path / "forged.snap"
    save_snapshot(snapshot, path)
    lines = path.read_bytes().split(b"\n")[1 : 1 + len(snapshot)]
    # keys in reverse order, spaces after the separators, non-ASCII text unescaped
    record = json.loads(lines[2])
    lines[2] = json.dumps(dict(reversed(record.items())), separators=(", ", ": "), ensure_ascii=False).encode()
    _forge(path, snapshot, lines, snapshot.matrix)
    assert load_snapshot(path).items == snapshot.items


def test_a_query_decodes_only_the_items_it_walks(tmp_path, monkeypatch):
    embedder = HashingEmbedder(dimension=32)
    rows = [embedder.embed(f"function number {i}") for i in range(200)]
    built = CorpusSnapshot.build([make_record(i) for i in range(200)], rows, embedder.embedder_id)
    path = tmp_path / "corpus.snap"
    save_snapshot(built, path)
    ranked = top_k(RetrievalQuery("function number 7", 4), built, embedder).indices()
    parsed = []
    loads = json.loads
    monkeypatch.setattr(corpus.json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    loaded = load_snapshot(path)
    result = top_k(RetrievalQuery("function number 7", 3), loaded, embedder, frozenset({"item_7"}))
    assert ranked[0] == 7 and result.indices() == ranked[1:]
    # the header, the three items returned and the denylisted item ranked above them
    assert len(parsed) <= 1 + 3 + 1


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
    records = [
        {"index": i, "signature": signature, "doc": doc, "body": body, "source_path": "src.py", "language": "python"}
        for i, (signature, doc, body) in enumerate(texts)
    ]
    rows = [(1.0, float(i)) for i in range(len(texts))]
    built = CorpusSnapshot.build(records, rows, "hash2", created_at="2026-01-01T00:00:00+00:00")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.snap"
        save_snapshot(built, path)
        lines = path.read_bytes().splitlines()[1:-1]
        loaded = load_snapshot(path)
        names = [signature_name(json.loads(line)["signature"]) for line in lines]
        for name in set(names):
            result = top_k(RetrievalQuery("q", len(names)), loaded, HashingEmbedder(2), frozenset({name}))
            assert sorted(result.indices()) == [row for row, other in enumerate(names) if other != name]
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
    records, rows = [], []
    for index in range(1000):
        signature = f"handler_{index}(request, options)"
        body = "\n".join(
            [f"def {signature}:"]
            + [f"    value_{line} = request.field_{line} + {index}" for line in range(20)]
        )
        records.append(
            {
                "index": index,
                "signature": signature,
                "doc": f"Handle request number {index} with the given options.",
                "body": body,
                "source_path": f"pkg/module_{index % 7}.py",
                "language": "python",
            }
        )
        rows.append(embedder.embed(signature))
    return CorpusSnapshot.build(records, rows, embedder.embedder_id)


def _traced(function, *args) -> tuple[CorpusSnapshot, int, int]:
    """``function(*args)``, the bytes it keeps and its peak, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = function(*args)
        kept, peak = (value - before for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return loaded, kept, peak


def test_snapshot_load_peaks_below_two_and_a_half_file_sizes(tmp_path):
    path = tmp_path / "big.snap"
    save_snapshot(_megabyte_snapshot(), path)
    size = path.stat().st_size
    assert 900_000 < size < 1_100_000
    loaded, kept, peak = _traced(load_snapshot, path)
    assert len(loaded) == 1000
    assert peak <= 2.5 * size, f"load peaked at {peak / size:.2f}x the file size"
    # streamed: beyond the snapshot it returns, the load holds little at once
    assert peak - kept <= 0.2 * size, f"load held {(peak - kept) / size:.2f}x the file size transiently"


def test_loaded_snapshot_keeps_little_beyond_its_matrix(tmp_path):
    path = tmp_path / "big.snap"
    save_snapshot(_megabyte_snapshot(), path)
    loaded, kept, _ = _traced(load_snapshot, path)
    per_item = (kept - loaded.matrix.nbytes) / len(loaded)
    # offsets, lengths and line hashes; not the item lines
    assert per_item <= 512, f"load kept {per_item:.0f} B per item beyond the matrix"


def test_ingest_peaks_below_three_matrices(tmp_path):
    # 300 definitions whose 4096-wide rows outweigh their text, so a second
    # copy of each vector, as a tuple of floats or as packed bytes, would show
    for number in range(10):
        functions = [f"def handler_{number}_{index}(value):\n    return value + {index}\n" for index in range(30)]
        (tmp_path / f"module_{number}.py").write_text("\n".join(functions), encoding="utf-8")
    paths = sorted(tmp_path.iterdir())
    snapshot, _, peak = _traced(ingest, paths, HashingEmbedder(dimension=4096))
    assert len(snapshot) == 300
    matrix = snapshot.matrix.nbytes
    assert peak <= 3 * matrix, f"ingest peaked at {peak / matrix:.2f}x its matrix"


def test_snapshot_load_holds_its_matrix_once(tmp_path):
    # 2 MB of sparse floats compress to a few KB, so a second copy of the
    # matrix would dominate what the load holds beyond its result
    embedder = HashingEmbedder(dimension=4096)
    rows = [embedder.embed(f"function number {i}") for i in range(64)]
    path = tmp_path / "wide.snap"
    save_snapshot(CorpusSnapshot.build([make_record(i) for i in range(64)], rows, embedder.embedder_id), path)
    loaded, kept, peak = _traced(load_snapshot, path)
    matrix = loaded.matrix.nbytes
    assert peak - kept <= 0.2 * matrix, f"load held {(peak - kept) / matrix:.2f}x the matrix transiently"
