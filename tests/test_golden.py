"""Golden pins of the bytes the run-log codec writes.

Each file under ``tests/golden`` holds the text of one record as the codec
wrote it when the file was pinned: a run log per tier (timing fields left
out), a run-log directory with timing fields, and a sweep report; beside
them ``snapshot`` holds the bytes ``save_snapshot`` wrote for the corpus the
retrieval tiers use. The script digest below pins the sparse encoding of
script entries. A change to the codec or the snapshot format must
reproduce all of them byte for byte.

After an intended change of the format, re-pin with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff. The
run-log directory is re-saved through the codec rather than re-run, so it
keeps the legacy ``embedder`` config key that the replay test covers.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from arcs.controller import (
    TIERS,
    RunDeps,
    TierConfig,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from arcs.corpus import CorpusItem, CorpusSnapshot, load_snapshot, save_snapshot
from arcs.embedding import HashingEmbedder
from arcs.errors import ReplayAssetError
from arcs.evalkit import TaskRecord, sweep
from arcs.executor import InProcessExecutor
from arcs.executor import TestCase as Case
from arcs.executor import TestSuite as Suite
from arcs.model import ScriptedModel

GOLDEN = Path(__file__).parent / "golden"
RUN_LOG_DIR = GOLDEN / "runlog"
SNAPSHOT = GOLDEN / "snapshot"

SPEC = "Read two integers from one stdin line and print their sum.\n" + " ".join(
    f"note{i}" for i in range(130)
)
SUITE = Suite(
    cases=(Case(1, "1 2", "3"), Case(2, "2 2", "4"), Case(3, "10 5", "15"))
)
PLAN = (
    "CONTRACT: two integers in, one integer out\n"
    "SKETCH: parse, add, print\n"
    "SUBGOALS:\n"
    "- parse input: split stdin into integers\n"
    "- compute sum: add the two values\n"
)
BUGGY = "```python\na, b = map(int, input().split())\nprint(a - b)\n```"
FIXED = "```python\na, b = map(int, input().split())\nprint(a + b)\n```"
SUMMED = "```python\nprint(sum(map(int, input().split())))\n```"

# Sparse entries next to one that states every field; in the large tier the
# full entry answers the second proposal (call ordinal 3, after two plans).
SCRIPT = [
    {"needles": ["[[PLANNING]]"], "response": PLAN},
    {
        "response": SUMMED,
        "feedback": True,
        "needles": ["wrong output"],
        "absent": ["[[PLANNING]]"],
        "ordinal": 3,
    },
    {"feedback": False, "response": BUGGY},
    {"feedback": True, "response": FIXED},
]
SCRIPT_DIGEST = "f5d8f27ca31dc5ee4b42c85143254fd867ab40fd97661221e7c1fbf6498400c6"

GOLDEN_TIERS = {**TIERS, "large": TierConfig.large(k=3, iterations=3)}


def _text(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _snapshot() -> tuple[CorpusSnapshot, HashingEmbedder]:
    embedder = HashingEmbedder()
    texts = [
        ("parse_ints(line)", "Split a line into integers."),
        ("add(a, b)", "Sum of two numbers."),
        ("scale(values, factor)", "Multiply every value."),
        ("read_pair()", "Read two integers from stdin."),
        ("print_sum(a, b)", "Print the sum of two integers."),
    ]
    items = [
        CorpusItem(
            index=index,
            signature=signature,
            doc=doc,
            body=f"def {signature}:\n    pass",
            source_path=f"golden/module_{index % 2}.py",
            language="python",
            embedding=tuple(embedder.embed(f"{signature}\n{doc}")),
        )
        for index, (signature, doc) in enumerate(texts)
    ]
    snapshot = CorpusSnapshot.build(
        items, embedder.embedder_id, embedder.dimension, created_at="2026-01-01T00:00:00+00:00"
    )
    return snapshot, embedder


def _deps(tier: TierConfig, **extra) -> RunDeps:
    snapshot, embedder = _snapshot() if tier.k > 0 else (None, None)
    return RunDeps(
        model=ScriptedModel(SCRIPT, model_id="golden"),
        executor=InProcessExecutor(),
        snapshot=snapshot,
        embedder=embedder,
        **extra,
    )


def tier_log(name: str):
    tier = GOLDEN_TIERS[name]
    return run(SPEC, SUITE, tier, _deps(tier)).log


def sweep_report():
    tasks = [
        TaskRecord(id="add", spec=SPEC, suite=SUITE),
        TaskRecord(id="echo", spec="Print the input back.", suite=SUITE),
    ]
    model = ScriptedModel(
        [{"needles": ["sum"], "feedback": False, "response": BUGGY},
         {"needles": ["sum"], "feedback": True, "response": FIXED}],
        model_id="golden",
    )
    deps = RunDeps(model=model, executor=InProcessExecutor())
    return sweep(tasks, TierConfig(k=0, iterations=2), deps)


@pytest.mark.parametrize("name", sorted(GOLDEN_TIERS))
def test_tier_run_log_matches_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert _text(tier_log(name).to_jsonable(include_timing=False)) == expected


def test_saved_run_log_resaves_byte_for_byte(tmp_path):
    save_run_log(load_run_log(RUN_LOG_DIR), tmp_path)
    pinned = sorted(path.name for path in RUN_LOG_DIR.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == pinned
    for name in pinned:
        assert (tmp_path / name).read_bytes() == (RUN_LOG_DIR / name).read_bytes(), name


def test_pinned_run_log_still_replays():
    logged = load_run_log(RUN_LOG_DIR)
    fresh = replay(logged, _deps(logged.tier))
    assert compare_run_logs(logged, fresh) == []


# What a run log held before it kept each fact once: five echoes of its
# config, the invariants text, and a stored cost, here one that disagrees
# with the rounds.
LEGACY_KEYS = {
    "decoding": {"max_output_tokens": 512, "seed": 42, "temperature": 0.7, "top_p": 0.95},
    "input_token_cap": 4096,
    "redundancy_delta": 0.85,
    "plan_gate_tokens": 120,
    "max_stack_lines": 10,
    "invariants_text": (
        "The program reads from standard input and writes to standard output. "
        "It must satisfy all 3 input/output tests (output comparison mode: trim)."
    ),
    "cost": {"rounds": [], "total": 99.0},
}


def test_log_with_setting_echoes_and_a_stored_cost_loads_and_replays(tmp_path):
    directory = tmp_path / "runlog"
    shutil.copytree(RUN_LOG_DIR, directory)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest_path.write_text(json.dumps({**manifest, **LEGACY_KEYS}), encoding="utf-8")
    logged = load_run_log(directory)
    # two rounds of one retrieval, two prompts and two answers (the plan and
    # the proposal) and three tests
    assert logged.cost.total == 16.0
    assert [cost.total for cost in logged.cost.rounds] == [8.0, 8.0]
    fresh = replay(logged, _deps(logged.tier))
    assert compare_run_logs(logged, fresh) == []


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"config": {"seed": 7}}, "config digest"),
        ({"version": 99}, "unsupported version 99"),
    ],
    ids=["config_edited", "version_99"],
)
def test_a_manifest_that_disagrees_with_what_it_stores_does_not_load(tmp_path, edit, message):
    directory = tmp_path / "runlog"
    shutil.copytree(RUN_LOG_DIR, directory)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for key, value in edit.items():
        manifest[key] = {**manifest[key], **value} if isinstance(value, dict) else value
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ReplayAssetError, match=message):
        load_run_log(directory)


def test_script_digest_matches_golden():
    assert ScriptedModel(SCRIPT, model_id="golden").script_digest == SCRIPT_DIGEST


def test_sweep_report_matches_golden():
    expected = (GOLDEN / "sweep_report.json").read_text(encoding="utf-8")
    assert _text(sweep_report().to_jsonable()) == expected


def test_saved_snapshot_matches_golden(tmp_path):
    save_snapshot(_snapshot()[0], tmp_path / "snapshot")
    assert (tmp_path / "snapshot").read_bytes() == SNAPSHOT.read_bytes()


def test_golden_snapshot_loads_to_the_logged_digest_and_items():
    logged_digest = json.loads((GOLDEN / "large.json").read_text(encoding="utf-8"))["snapshot_digest"]
    loaded = load_snapshot(SNAPSHOT)
    assert loaded.content_digest == logged_digest
    assert loaded.items == _snapshot()[0].items


def _pin(directory: Path = GOLDEN) -> None:
    directory.mkdir(exist_ok=True)
    for name in GOLDEN_TIERS:
        (directory / f"{name}.json").write_text(
            _text(tier_log(name).to_jsonable(include_timing=False)), encoding="utf-8"
        )
    # re-saved, not re-run: the legacy config key, the timestamp and the
    # wall times stay as pinned
    save_run_log(load_run_log(RUN_LOG_DIR), directory / RUN_LOG_DIR.name)
    (directory / "sweep_report.json").write_text(_text(sweep_report().to_jsonable()), encoding="utf-8")
    save_snapshot(_snapshot()[0], directory / SNAPSHOT.name)
    print("script digest:", ScriptedModel(SCRIPT, model_id="golden").script_digest)


def _files(root: Path) -> list[Path]:
    return sorted(path.relative_to(root) for path in root.rglob("*") if path.is_file())


def test_pin_rewrites_every_golden_file_byte_for_byte(tmp_path):
    _pin(tmp_path)
    pinned = _files(GOLDEN)
    assert _files(tmp_path) == pinned
    for name in pinned:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    _pin()
