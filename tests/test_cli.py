from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from arcs.cli import _build_parser, _resolved_config, main
from arcs.config import DEFAULTS
from arcs.controller import TIERS, RunDeps, run, save_run_log
from arcs.corpus import ingest, load_snapshot
from arcs.embedding import HashingEmbedder, RemoteEmbedder
from arcs.executor import InProcessExecutor, load_suite
from arcs.model import ScriptedModel

from conftest import THREE_FUNCTION_FILE
from helpers import BUGGY_SUM, FIXED_SUM, PLAN_ANSWER, fenced


@pytest.fixture
def task_files(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("Read two integers from one stdin line and print their sum.", encoding="utf-8")
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            {
                "cases": [
                    {"id": 1, "input": "1 2", "expected": "3"},
                    {"id": 2, "input": "2 2", "expected": "4"},
                ]
            }
        ),
        encoding="utf-8",
    )
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "model_id": "fixture",
                "entries": [
                    {"needles": ["[[PLANNING]]"], "response": PLAN_ANSWER},
                    {"feedback": False, "response": fenced(BUGGY_SUM)},
                    {"feedback": True, "response": fenced(FIXED_SUM)},
                ],
            }
        ),
        encoding="utf-8",
    )
    return spec, suite, script


def _run_args(tmp_path, task_files, *flags, script=None):
    spec, suite, fixture_script = task_files
    return [
        "run",
        "--spec", str(spec),
        "--suite", str(suite),
        "--script", str(script or fixture_script),
        "--log-dir", str(tmp_path / "rl"),
        *flags,
    ]


def test_run_success_prints_program_path(tmp_path, task_files, capsys):
    spec, suite, script = task_files
    log_dir = tmp_path / "rl"
    code = main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--tier", "small",
            "--budget-b", "3",
            "--script", str(script),
            "--log-dir", str(log_dir),
        ]
    )
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out.endswith("program.py")
    assert (log_dir / "manifest.json").exists()
    assert (log_dir / "program.py").read_text(encoding="utf-8").strip() == FIXED_SUM


def test_run_failure_exits_one(tmp_path, task_files):
    spec, suite, script = task_files
    code = main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--tier", "small",
            "--script", str(script),
            "--log-dir", str(tmp_path / "rl"),
        ]
    )
    assert code == 1  # single round, buggy candidate


def test_run_missing_snapshot_is_config_error(tmp_path, task_files, capsys):
    spec, suite, script = task_files
    code = main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--tier", "large",
            "--script", str(script),
            "--log-dir", str(tmp_path / "rl"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "snapshot" in err


def test_unknown_flag_is_usage_error(task_files):
    spec, suite, script = task_files
    assert main(["run", "--spec", str(spec), "--no-such-flag"]) == 2


def test_exec_exit_codes(tmp_path, task_files):
    _, suite, _ = task_files
    good = tmp_path / "good.py"
    good.write_text(FIXED_SUM, encoding="utf-8")
    bad = tmp_path / "bad.py"
    bad.write_text(BUGGY_SUM, encoding="utf-8")
    assert main(["exec", "--program", str(good), "--suite", str(suite)]) == 0
    assert main(["exec", "--program", str(bad), "--suite", str(suite)]) == 1


def test_index_then_query(tmp_path, capsys):
    source_dir = tmp_path / "src"
    source_dir.mkdir()
    (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
    snapshot_path = tmp_path / "corpus.snap"
    assert main(["index", "--input", str(source_dir), "--out", str(snapshot_path)]) == 0
    indexed = capsys.readouterr().out
    assert "items=" in indexed and "digest=" in indexed

    assert main(["query", "--snapshot", str(snapshot_path), "--q", "multiply values", "-k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert "\t" in lines[0]


def test_replay_matches_then_detects_tampering(tmp_path, task_files, capsys):
    spec, suite, script = task_files
    log_dir = tmp_path / "rl"
    assert (
        main(
            [
                "run",
                "--spec", str(spec),
                "--suite", str(suite),
                "--tier", "small",
                "--budget-b", "3",
                "--script", str(script),
                "--log-dir", str(log_dir),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["replay", "--log", str(log_dir), "--script", str(script)]) == 0
    assert "identical" in capsys.readouterr().out

    round_file = log_dir / "round_000.json"
    text = round_file.read_text(encoding="utf-8")
    round_file.write_text(text.replace("wrong_output", "wrong_OUTPUT", 1), encoding="utf-8")
    code = main(["replay", "--log", str(log_dir), "--script", str(script)])
    err = capsys.readouterr().err
    assert code == 2
    assert "round_000.json" in err


def _index(tmp_path) -> Path:
    source_dir = tmp_path / "corpus"
    source_dir.mkdir()
    (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
    snapshot_path = tmp_path / "corpus.snap"
    assert main(["index", "--input", str(source_dir), "--out", str(snapshot_path)]) == 0
    return snapshot_path


def test_a_tree_indexes_to_one_digest_wherever_it_lies(tmp_path, capsys, monkeypatch):
    # one tree under two directories, given once by absolute and once by relative path
    monkeypatch.chdir(tmp_path)
    indexed = []
    for place, given in (("first", str), ("second/deeper", lambda root: os.path.relpath(root))):
        root = tmp_path / place / "tree"
        (root / "pkg").mkdir(parents=True)
        (root / "pkg" / "a.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
        (root / "tools").mkdir()
        (root / "tools" / "b.py").write_text("def helper():\n    return 1\n", encoding="utf-8")
        snapshot_path = tmp_path / place / "corpus.snap"
        assert main(["index", "--input", given(root), "--out", str(snapshot_path)]) == 0
        digest = capsys.readouterr().out.split("digest=")[1].strip()
        assert main(["query", "--snapshot", str(snapshot_path), "--q", "multiply values", "-k", "5"]) == 0
        indexed.append((digest, capsys.readouterr().out))
    assert indexed[0] == indexed[1]
    paths = {line.split("\t")[3] for line in indexed[0][1].splitlines()}
    assert paths == {"pkg/a.py", "tools/b.py"}


def _fake_embedding_endpoint(monkeypatch, built: list):
    """Serve every remote embedder from the hasher, and record each embedder ``index`` builds."""
    hasher = HashingEmbedder()

    def transport(url, payload, timeout):
        return {"embedding": hasher.embed(payload["text"])}

    def recording_ingest(paths, embedder):
        built.append(embedder)
        return ingest(paths, embedder)

    monkeypatch.setattr("arcs.embedding.http_post_json", transport)
    monkeypatch.setattr("arcs.cli.ingest", recording_ingest)


def test_index_with_a_remote_embedder_builds_it_at_the_endpoint(tmp_path, monkeypatch):
    built = []
    _fake_embedding_endpoint(monkeypatch, built)
    source_dir = tmp_path / "corpus"
    source_dir.mkdir()
    (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
    for embedder_id in ("remote", "e5-small"):
        out = tmp_path / f"{embedder_id}.snap"
        argv = ["index", "--input", str(source_dir), "--out", str(out), "--embedder", embedder_id]
        assert main([*argv, "--embed-endpoint", "https://embed.example/v1"]) == 0
        assert load_snapshot(out).embedder_id == embedder_id
    assert [type(embedder) for embedder in built] == [RemoteEmbedder, RemoteEmbedder]
    assert [(e.embedder_id, e.dimension, e.endpoint) for e in built] == [
        ("remote", 384, "https://embed.example/v1"),
        ("e5-small", 384, "https://embed.example/v1"),
    ]


@pytest.mark.parametrize("command", ["index", "query", "run"])
def test_a_remote_embedder_without_an_endpoint_exits_two_naming_it(
    tmp_path, task_files, capsys, monkeypatch, command
):
    _fake_embedding_endpoint(monkeypatch, [])
    source_dir = tmp_path / "corpus"
    source_dir.mkdir()
    (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
    snapshot = tmp_path / "corpus.snap"
    index = ["index", "--input", str(source_dir), "--out", str(snapshot), "--embedder", "e5-small"]
    if command != "index":
        assert main([*index, "--embed-endpoint", "https://embed.example/v1"]) == 0
    argv = {
        "index": index,
        "query": ["query", "--snapshot", str(snapshot), "--q", "add"],
        "run": _run_args(tmp_path, task_files, "--tier", "large", "--snapshot", str(snapshot)),
    }[command]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and "'e5-small'" in err[0] and "--embed-endpoint" in err[0], err


def _large_run(tmp_path, task_files) -> tuple[Path, Path]:
    """A large-tier CLI run with retrieval; its log directory and snapshot."""
    snapshot_path = _index(tmp_path)
    flags = ("--tier", "large", "--budget-b", "3", "--snapshot", str(snapshot_path))
    assert main(_run_args(tmp_path, task_files, *flags)) == 0
    return tmp_path / "rl", snapshot_path


def test_replay_of_a_retrieval_run_reads_its_assets_from_the_logged_config(
    tmp_path, task_files, capsys
):
    log_dir, _ = _large_run(tmp_path, task_files)
    manifest = json.loads((log_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["snapshot_digest"] is not None
    capsys.readouterr()
    assert main(["replay", "--log", str(log_dir)]) == 0
    assert "identical" in capsys.readouterr().out


def test_replay_of_a_run_that_found_no_candidate(tmp_path, task_files, capsys):
    script = tmp_path / "late.json"
    script.write_text(
        json.dumps({"model_id": "fixture", "entries": [{"ordinal": 9, "response": fenced(FIXED_SUM)}]}),
        encoding="utf-8",
    )
    assert main(_run_args(tmp_path, task_files, "--budget-b", "2", script=script)) == 1
    assert (tmp_path / "rl" / "manifest.json").is_file()
    capsys.readouterr()
    assert main(["replay", "--log", str(tmp_path / "rl")]) == 0
    assert "replay identical" in capsys.readouterr().out


def test_replay_reads_a_snapshot_given_at_another_path(tmp_path, task_files, capsys):
    log_dir, snapshot_path = _large_run(tmp_path, task_files)
    moved = shutil.move(snapshot_path, tmp_path / "elsewhere.snap")
    capsys.readouterr()
    assert main(["replay", "--log", str(log_dir), "--snapshot", str(moved)]) == 0
    assert "replay identical" in capsys.readouterr().out


def test_replay_of_a_run_that_differs_names_what_diverged(tmp_path, task_files, capsys):
    script = tmp_path / "random.json"
    script.write_text(
        json.dumps({"model_id": "fixture", "entries": [{"response": fenced("import random\nprint(random.random())")}]}),
        encoding="utf-8",
    )
    assert main(_run_args(tmp_path, task_files, script=script)) == 1
    capsys.readouterr()
    assert main(["replay", "--log", str(tmp_path / "rl")]) == 1
    err = capsys.readouterr().err
    assert "replay diverged on:" in err
    assert re.search(r"^  /rounds\[0\]/feedback/\S+$", err, re.MULTILINE), err


def test_query_leaves_out_the_denylisted_names(tmp_path, capsys):
    snapshot_path = _index(tmp_path)
    denylist = tmp_path / "deny.txt"
    denylist.write_text("# not this one\n\nscale\n", encoding="utf-8")
    query = ["query", "--snapshot", str(snapshot_path), "--q", "multiply values", "-k", "5"]
    capsys.readouterr()
    assert main(query) == 0
    assert "scale(values, factor)" in capsys.readouterr().out
    assert main([*query, "--denylist", str(denylist)]) == 0
    signatures = [line.split("\t")[2] for line in capsys.readouterr().out.splitlines()]
    assert sorted(signatures) == ["Accumulator(object)", "add(a, b)"]


def test_a_run_without_a_candidate_leaves_no_earlier_program(tmp_path, task_files):
    log_dir = tmp_path / "rl"
    assert main(_run_args(tmp_path, task_files, "--budget-b", "3")) == 0
    assert (log_dir / "program.py").is_file()
    assert (log_dir / "round_001.json").is_file()
    script = tmp_path / "late.json"
    script.write_text(
        json.dumps({"model_id": "fixture", "entries": [{"ordinal": 9, "response": fenced(FIXED_SUM)}]}),
        encoding="utf-8",
    )
    assert main(_run_args(tmp_path, task_files, script=script)) == 1
    assert json.loads((log_dir / "manifest.json").read_text())["outcome"]["returned_program"] is None
    assert sorted(path.name for path in log_dir.iterdir()) == ["manifest.json", "round_000.json"]


def test_a_run_ended_by_an_error_saves_the_rounds_it_finished(tmp_path, task_files, capsys):
    log_dir = tmp_path / "rl"
    assert main(_run_args(tmp_path, task_files, "--budget-b", "3")) == 0
    assert (log_dir / "program.py").is_file()
    spec, _, script = task_files
    long_suite = tmp_path / "long.json"  # round 1's feedback quotes 150 tokens of it, past the input cap
    long_suite.write_text(json.dumps([{"id": 1, "input": " ".join(["7"] * 500), "expected": "x"}]))
    capsys.readouterr()
    argv = _run_args(tmp_path, (spec, long_suite, script), "--budget-b", "3", "--input-cap", "200")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: context exhausted")
    assert sorted(path.name for path in log_dir.iterdir()) == ["manifest.json", "round_000.json"]
    assert json.loads((log_dir / "manifest.json").read_text())["outcome"]["rounds_executed"] == 1
    assert main(["replay", "--log", str(log_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: context exhausted")


def _replay_scripted_log_without_script(tmp_path, task_files):
    # a library run echoes no config, so the script path is nowhere logged
    model = ScriptedModel([{"response": fenced(FIXED_SUM)}])
    deps = RunDeps(model=model, executor=InProcessExecutor())
    suite = load_suite(task_files[1])
    log_dir = save_run_log(run("Add.", suite, TIERS["small"], deps).log, tmp_path / "rl")
    return ["replay", "--log", str(log_dir)]


def _replay_with_its_snapshot_gone(tmp_path, task_files):
    log_dir, snapshot_path = _large_run(tmp_path, task_files)
    snapshot_path.unlink()
    return ["replay", "--log", str(log_dir)]


@pytest.mark.parametrize(
    "missing_asset", [_replay_scripted_log_without_script, _replay_with_its_snapshot_gone]
)
def test_replay_without_its_assets_exits_two_with_one_line(
    tmp_path, task_files, capsys, missing_asset
):
    argv = missing_asset(tmp_path, task_files)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_replay_with_different_script_is_asset_error(tmp_path, task_files, capsys):
    spec, suite, script = task_files
    log_dir = tmp_path / "rl"
    main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--tier", "small",
            "--budget-b", "3",
            "--script", str(script),
            "--log-dir", str(log_dir),
        ]
    )
    other = tmp_path / "other.json"
    other.write_text(
        json.dumps({"model_id": "fixture", "entries": [{"response": "nope"}]}),
        encoding="utf-8",
    )
    capsys.readouterr()
    code = main(["replay", "--log", str(log_dir), "--script", str(other)])
    assert code == 2
    assert "script" in capsys.readouterr().err


def test_sweep_table_and_report(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        json.dumps({"cases": [{"id": 1, "input": "", "expected": "ok"}]}), encoding="utf-8"
    )
    tasks_path = tmp_path / "tasks.json"
    tasks_path.write_text(
        json.dumps([{"id": "t1", "spec": "print ok", "suite_path": "suite.json"}]),
        encoding="utf-8",
    )
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps({"entries": [{"response": fenced("print('ok')")}]}), encoding="utf-8"
    )
    report_path = tmp_path / "report.json"
    code = main(
        [
            "sweep",
            "--tasks", str(tasks_path),
            "--tier", "small",
            "--script", str(script),
            "--report", str(report_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pass@1" in out
    summary = json.loads(report_path.read_text(encoding="utf-8"))
    assert summary["small"]["pass_at_1"] == 1.0


def test_sweep_ablation_produces_all_rows(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        json.dumps({"cases": [{"id": 1, "input": "", "expected": "ok"}]}), encoding="utf-8"
    )
    tasks_path = tmp_path / "tasks.json"
    tasks_path.write_text(
        json.dumps([{"id": "t1", "spec": "print ok", "suite_path": "suite.json"}]),
        encoding="utf-8",
    )
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "entries": [
                    {"feedback": True, "response": fenced("print('ok')")},
                    {"feedback": False, "response": fenced("print('no')")},
                ]
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "sweep",
            "--tasks", str(tasks_path),
            "--tier", "small",
            "--script", str(script),
            "--ablate", "feedback",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "baseline" in out and "+feedback" in out


def test_sweep_ablating_retrieval_loads_the_snapshot_on_the_default_tier(tmp_path, task_files):
    spec, suite, script = task_files
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([{"id": "t1", "spec_path": str(spec), "suite_path": str(suite)}]), encoding="utf-8")
    report = tmp_path / "report.json"
    code = main(
        [
            "sweep",
            "--tasks", str(tasks),
            "--script", str(script),
            "--ablate", "retrieval",
            "--snapshot", str(_index(tmp_path)),
            "--report", str(report),
        ]
    )
    assert code == 0
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert sorted(rows) == ["+retrieval", "baseline"]
    outcomes = [outcome for row in rows.values() for outcome in row["outcomes"]]
    assert len(outcomes) == 2 and not any(outcome["error"] for outcome in outcomes)


def test_credential_never_reaches_logs(tmp_path, task_files, monkeypatch):
    spec, suite, script = task_files
    secret = "extremely-secret-token-value"
    monkeypatch.setenv("ARCS_API_TOKEN", secret)
    log_dir = tmp_path / "rl"
    main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--tier", "small",
            "--budget-b", "2",
            "--script", str(script),
            "--log-dir", str(log_dir),
        ]
    )
    for path in log_dir.rglob("*"):
        if path.is_file():
            assert secret not in path.read_text(encoding="utf-8")


def test_config_file_precedence(tmp_path, task_files, capsys):
    spec, suite, script = task_files
    config = tmp_path / "exp.conf"
    config.write_text(
        f"tier = small\nbudget_b = 3\nscript = {script}\nseed = 7\n# comment line\n",
        encoding="utf-8",
    )
    log_dir = tmp_path / "rl"
    code = main(
        [
            "run",
            "--spec", str(spec),
            "--suite", str(suite),
            "--config", str(config),
            "--seed", "11",
            "--log-dir", str(log_dir),
        ]
    )
    assert code == 0
    manifest = json.loads((log_dir / "manifest.json").read_text(encoding="utf-8"))
    # flag beats file, file beats default
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["budget_b"] == 3
    assert manifest["tier"]["iterations"] == 3


def _other_value(key: str) -> str:
    """A value for ``key`` other than its default, written as a flag or file gives it."""
    default = DEFAULTS[key]
    if default is None:
        return "3"
    if isinstance(default, str):
        return {"tier": "large", "model": "remote"}.get(key, "other")
    return str(default + 1) if isinstance(default, int) else str(default / 2)


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, _other_value(key), id=key) for key in DEFAULTS]
    + [pytest.param("endpoint", "http://h/v1#frag", id="endpoint_with_a_fragment")],
)
def test_every_config_key_is_a_flag_parsed_like_its_file_line(tmp_path, key, value):
    config = tmp_path / "run.conf"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    parser = _build_parser()
    common = ["run", "--spec", "spec.txt", "--suite", "suite.json"]
    from_flag = _resolved_config(parser.parse_args([*common, "--" + key.replace("_", "-"), value]))
    from_file = _resolved_config(parser.parse_args([*common, "--config", str(config)]))
    assert from_flag == from_file
    assert from_flag[key] != DEFAULTS[key]


def test_readme_lists_every_config_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The keys, in order: (.*?)\.\n", readme, re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(DEFAULTS)


def _replay_manifest_without_spec(tmp_path, task_files):
    log_dir = tmp_path / "log"
    shutil.copytree(Path(__file__).parent / "golden" / "runlog", log_dir)
    manifest_path = log_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["spec"]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return ["replay", "--log", str(log_dir)]


def _run_script_entry_without_response(tmp_path, task_files):
    script = tmp_path / "bad_script.json"
    script.write_text(json.dumps({"entries": [{"feedback": False}]}), encoding="utf-8")
    return _run_args(tmp_path, task_files, script=script)


def _exec_suite_not_json(tmp_path, task_files):
    program = tmp_path / "program.py"
    program.write_text(FIXED_SUM, encoding="utf-8")
    suite = tmp_path / "suite.txt"
    suite.write_text("1 2 -> 3", encoding="utf-8")
    return ["exec", "--program", str(program), "--suite", str(suite)]


def _sweep_task_record_not_object(tmp_path, task_files):
    _, _, script = task_files
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps(["t1"]), encoding="utf-8")
    return ["sweep", "--tasks", str(tasks), "--tier", "small", "--script", str(script)]


def _sweep_task_record_a_number(tmp_path, task_files):
    spec, suite, script = task_files
    tasks = tmp_path / "tasks.json"
    record = {"id": "t1", "spec_path": str(spec), "suite_path": str(suite)}
    tasks.write_text(json.dumps([record, 3]), encoding="utf-8")
    return ["sweep", "--tasks", str(tasks), "--tier", "small", "--script", str(script)]


def _exec_suite_key_misspelled(tmp_path, task_files):
    program = tmp_path / "program.py"
    program.write_text(FIXED_SUM, encoding="utf-8")
    suite = tmp_path / "suite_typo.json"
    suite.write_text(
        json.dumps({"cases": [{"id": 1, "input": "1 2", "expected": "3"}], "comapre": "exact"}),
        encoding="utf-8",
    )
    return ["exec", "--program", str(program), "--suite", str(suite)]


def _run_script_entry_key_misspelled(tmp_path, task_files):
    script = tmp_path / "typo_script.json"
    entry = {"needle": ["never in a prompt"], "response": fenced(FIXED_SUM)}
    script.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    return _run_args(tmp_path, task_files, script=script)


def _sweep_one_record(tmp_path, task_files, **changes):
    """Sweep argv for a task set of one record: the fixture's task with
    ``changes`` applied, and the keys they set to None left out."""
    spec, suite, script = task_files
    record = {"id": "t1", "spec_path": str(spec), "suite_path": str(suite), **changes}
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([{k: v for k, v in record.items() if v is not None}]), encoding="utf-8")
    return ["sweep", "--tasks", str(tasks), "--tier", "small", "--script", str(script)]


def _sweep_task_record_without_id(tmp_path, task_files):
    return _sweep_one_record(tmp_path, task_files, id=None)


def _sweep_task_record_without_spec(tmp_path, task_files):
    return _sweep_one_record(tmp_path, task_files, spec_path=None)


def _sweep_task_record_without_suite(tmp_path, task_files):
    return _sweep_one_record(tmp_path, task_files, suite_path=None)


def _sweep_task_record_key_misspelled(tmp_path, task_files):
    return _sweep_one_record(tmp_path, task_files, tag=["group"])


def _sweep_task_spec_not_string(tmp_path, task_files):
    return _sweep_one_record(tmp_path, task_files, spec_path=None, spec=3)


def _sweep_ablate_retrieval_without_snapshot(tmp_path, task_files):
    return [*_sweep_one_record(tmp_path, task_files), "--ablate", "planning,retrieval"]


def _sweep_tasks_not_utf8(tmp_path, task_files):
    _, _, script = task_files
    tasks = tmp_path / "tasks.json"
    tasks.write_bytes(b"[\xff]")
    return ["sweep", "--tasks", str(tasks), "--tier", "small", "--script", str(script)]


def _replay_manifest_not_utf8(tmp_path, task_files):
    log_dir = tmp_path / "log"
    shutil.copytree(Path(__file__).parent / "golden" / "runlog", log_dir)
    (log_dir / "manifest.json").write_bytes(b"{\xff}")
    return ["replay", "--log", str(log_dir)]


def _exec_program_missing(tmp_path, task_files):
    _, suite, _ = task_files
    return ["exec", "--program", str(tmp_path / "missing.py"), "--suite", str(suite)]


def _run_spec_missing(tmp_path, task_files):
    _, suite, script = task_files
    return [
        "run",
        "--spec", str(tmp_path / "nope.txt"),
        "--suite", str(suite),
        "--script", str(script),
        "--log-dir", str(tmp_path / "rl"),
    ]


def _sweep_task_tags_not_list(tmp_path, task_files):
    spec, suite, script = task_files
    tasks = tmp_path / "tasks.json"
    record = {"id": "t1", "spec_path": str(spec), "suite_path": str(suite), "tags": "group"}
    tasks.write_text(json.dumps([record]), encoding="utf-8")
    return ["sweep", "--tasks", str(tasks), "--tier", "small", "--script", str(script)]


def _query_v1_snapshot(tmp_path, task_files):
    # a complete, digest-valid snapshot in the retired format 1
    item = {
        "index": 0,
        "signature": "add(a, b)",
        "doc": "",
        "body": "def add(a, b):\n    return a + b",
        "source_path": "alpha.py",
        "language": "python",
        "embedding": [1.0, 0.0, 0.0, 0.0],
    }
    line = json.dumps(item, sort_keys=True, separators=(",", ":"))
    header = {
        "format": "arcs-snapshot",
        "version": 1,
        "embedder_id": "hash4",
        "dimension": 4,
        "created_at": "2026-01-01T00:00:00+00:00",
        "count": 1,
        "content_digest": hashlib.sha256(line.encode("utf-8")).hexdigest(),
    }
    snapshot = tmp_path / "v1.snap"
    snapshot.write_text(json.dumps(header, sort_keys=True) + "\n" + line + "\n", encoding="utf-8")
    return ["query", "--snapshot", str(snapshot), "--q", "add"]


def _run_budget_b_zero(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--budget-b", "0")


def _run_budget_k_negative(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--budget-k", "-1")


def _run_delta_above_one(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--delta", "1.5")


def _run_seed_not_int(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--seed", "x")


def _run_top_p_not_float(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--top-p", "abc")


def _run_tier_huge(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--tier", "huge")


def _run_model_nope(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--model", "nope")


def _exec_wall_seconds_zero(tmp_path, task_files):
    program = tmp_path / "program.py"
    program.write_text(FIXED_SUM, encoding="utf-8")
    _, suite, _ = task_files
    return ["exec", "--program", str(program), "--suite", str(suite), "--wall-seconds", "0"]


def _exec_memory_bytes_past_rlimit(tmp_path, task_files):
    return [*_exec_wall_seconds_zero(tmp_path, task_files)[:-2], "--memory-bytes", str(2**63)]


def _exec_wall_seconds_past_selectors(tmp_path, task_files):
    return [*_exec_wall_seconds_zero(tmp_path, task_files)[:-1], "3000000"]


def _query_k_zero(tmp_path, task_files):
    return ["query", "--snapshot", str(_index(tmp_path)), "--q", "add", "-k", "0"]


def _run_max_stack_lines_negative(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--budget-b", "2", "--max-stack-lines", "-1")


def _run_max_subgoals_negative(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--max-subgoals", "-1")


def _exec_wall_seconds_not_float(tmp_path, task_files):
    program = tmp_path / "program.py"
    program.write_text(FIXED_SUM, encoding="utf-8")
    _, suite, _ = task_files
    return ["exec", "--program", str(program), "--suite", str(suite), "--wall-seconds", "x"]


def _query_k_not_int(tmp_path, task_files):
    return ["query", "--snapshot", str(_index(tmp_path)), "--q", "add", "-k", "x"]


def _run_max_output_tokens_negative(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--max-output-tokens", "-5")


def _run_top_p_above_one(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--top-p", "7")


def _run_temperature_negative(tmp_path, task_files):
    return _run_args(tmp_path, task_files, "--temperature", "-1")


def _run_script_model_id_not_string(tmp_path, task_files):
    script = tmp_path / "bad_script.json"
    script.write_text(
        json.dumps({"model_id": 5, "entries": [{"response": fenced(FIXED_SUM)}]}),
        encoding="utf-8",
    )
    return _run_args(tmp_path, task_files, script=script)


def _run_config_unknown_key(tmp_path, task_files):
    config = tmp_path / "arcs.conf"
    config.write_text("seed = 3\nnot_a_key = 1\n", encoding="utf-8")
    return _run_args(tmp_path, task_files, "--config", str(config))


def _run_config_line_without_equals(tmp_path, task_files):
    config = tmp_path / "arcs.conf"
    config.write_text("seed 3\n", encoding="utf-8")
    return _run_args(tmp_path, task_files, "--config", str(config))


def _index_embedder_hash0(tmp_path, task_files):
    out = tmp_path / "corpus.snap"
    return ["index", "--input", str(tmp_path), "--out", str(out), "--embedder", "hash0"]


def _index_embedder_past_the_gram_count(tmp_path, task_files):
    # a tree that indexes under hash54872, so only the dimension is refused
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "add.py").write_text("def add(a, b):\n    return a + b\n", encoding="utf-8")
    out = tmp_path / "corpus.snap"
    return ["index", "--input", str(tree), "--out", str(out), "--embedder", "hash54873"]


def _run_spec_blank(tmp_path, task_files):
    spec, _, _ = task_files
    spec.write_text(" \n\t\n", encoding="utf-8")
    return _run_args(tmp_path, task_files)


def _index_tree_without_source_files(tmp_path, task_files):
    tree = tmp_path / "docs_only"
    tree.mkdir()
    (tree / "notes.txt").write_text("def add(a, b):\n    return a + b\n", encoding="utf-8")
    return ["index", "--input", str(tree), "--out", str(tmp_path / "corpus.snap")]


def _run_script_key_misspelled(tmp_path, task_files):
    script = tmp_path / "typo_script.json"
    script.write_text(
        json.dumps({"model_id": "m", "entires": [{"response": fenced(FIXED_SUM)}]}),
        encoding="utf-8",
    )
    return _run_args(tmp_path, task_files, script=script)


def _query_header_embedder_id_not_string(tmp_path, task_files):
    # the header is outside the content digest, so the snapshot still passes it
    snapshot = _index(tmp_path)
    header, rest = snapshot.read_text(encoding="utf-8").split("\n", 1)
    header = {**json.loads(header), "embedder_id": 5}
    snapshot.write_text(json.dumps(header, sort_keys=True) + "\n" + rest, encoding="utf-8")
    return ["query", "--snapshot", str(snapshot), "--q", "add"]


def _run_suite_case_id_past_float(tmp_path, task_files):
    _, suite, _ = task_files
    suite.write_text('{"cases": [{"id": 1e999, "input": "1 2", "expected": "3"}]}', encoding="utf-8")
    return _run_args(tmp_path, task_files)


def _golden_log(tmp_path) -> Path:
    log_dir = tmp_path / "log"
    shutil.copytree(Path(__file__).parent / "golden" / "runlog", log_dir)
    return log_dir


def _replay_manifest_version_past_float(tmp_path, task_files):
    manifest = _golden_log(tmp_path) / "manifest.json"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace('\n  "version": 1\n', '\n  "version": 1e999\n'), encoding="utf-8")
    return ["replay", "--log", str(manifest.parent)]


def _replay_round_wall_seconds_past_float(tmp_path, task_files):
    # a digest-valid round whose wall time is an integer too large for a float
    log_dir = _golden_log(tmp_path)
    round_file = log_dir / "round_000.json"
    text = round_file.read_text(encoding="utf-8")
    text = re.sub(r'"wall_seconds": [0-9.e-]+', '"wall_seconds": 1' + "0" * 400, text)
    round_file.write_text(text, encoding="utf-8")
    manifest = json.loads((log_dir / "manifest.json").read_text(encoding="utf-8"))
    manifest["rounds"][0]["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (log_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return ["replay", "--log", str(log_dir)]


def _query_header_count_past_float(tmp_path, task_files):
    snapshot = _index(tmp_path)
    header, rest = snapshot.read_text(encoding="utf-8").split("\n", 1)
    header = json.dumps({**json.loads(header), "count": "COUNT"}, sort_keys=True).replace('"COUNT"', "1e999")
    snapshot.write_text(header + "\n" + rest, encoding="utf-8")
    return ["query", "--snapshot", str(snapshot), "--q", "add"]


def _run_script_bare_list(tmp_path, task_files):
    script = tmp_path / "list_script.json"
    script.write_text(json.dumps([{"response": fenced(FIXED_SUM)}]), encoding="utf-8")
    return _run_args(tmp_path, task_files, script=script)


def _case(malformed, fragment: str):
    """A malformed-input case and the text its one error line must hold."""
    return pytest.param(malformed, fragment, id=malformed.__name__)


@pytest.mark.parametrize(
    "malformed, fragment",
    [
        _case(_replay_manifest_without_spec, "spec: missing field"),
        _case(_run_script_entry_without_response, "entries[0].response: missing field"),
        _case(_exec_suite_not_json, "suite.txt: Extra data"),
        _case(_sweep_task_record_not_object, "has a bad record: record 0: expected an object, got str"),
        _case(_sweep_task_record_a_number, "has a bad record: record 1: expected an object, got int"),
        _case(_sweep_task_record_without_id, "has a bad record: record 0.id: missing field"),
        _case(_sweep_task_record_without_spec, "has a bad record: record 0 needs spec or spec_path"),
        _case(_sweep_task_record_without_suite, "has a bad record: record 0 needs suite or suite_path"),
        _case(_sweep_task_record_key_misspelled, "has a bad record: record 0: unknown key 'tag'"),
        _case(_sweep_task_spec_not_string, "has a bad record: record 0.spec: expected str, got int"),
        _case(_sweep_ablate_retrieval_without_snapshot, "retrieval is enabled (k>0) but no --snapshot was given"),
        _case(_exec_suite_key_misspelled, "TestSuite: unknown key 'comapre'"),
        _case(_run_script_entry_key_misspelled, "entries[0]: unknown key 'needle'"),
        _case(_exec_program_missing, "missing.py: [Errno 2] No such file"),
        _case(_run_spec_missing, "nope.txt: [Errno 2] No such file"),
        _case(_sweep_task_tags_not_list, "record 0.tags: expected a list, got str"),
        _case(_query_v1_snapshot, "has format version 1, not 2"),
        _case(_run_budget_b_zero, "iteration budget must be >= 1"),
        _case(_run_budget_k_negative, "retrieval budget k must be >= 0"),
        _case(_run_delta_above_one, "delta must be in (0, 1]"),
        _case(_run_seed_not_int, "config key seed has a bad value 'x'"),
        _case(_run_top_p_not_float, "config key top_p has a bad value 'abc'"),
        _case(_run_tier_huge, "unknown tier 'huge'"),
        _case(_run_model_nope, "unknown model adapter 'nope'"),
        _case(_exec_wall_seconds_zero, "wall_seconds must be in (0, 2147483.647], got 0.0"),
        _case(_exec_memory_bytes_past_rlimit, "memory_bytes must be an integer in [1, 2**63 - 1]"),
        _case(_exec_wall_seconds_past_selectors, "wall_seconds must be in (0, 2147483.647], got 3000000.0"),
        _case(_query_k_zero, "retrieval budget k must be >= 1"),
        _case(_run_script_model_id_not_string, "model_id: expected str, got int"),
        _case(_index_embedder_hash0, "dimension must be in [1, 54872], got 0"),
        _case(_index_embedder_past_the_gram_count, "dimension must be in [1, 54872], got 54873"),
        _case(_run_max_stack_lines_negative, "max_stack_lines must be a finite number >= 0"),
        _case(_run_max_subgoals_negative, "max_subgoals must be a finite number >= 0"),
        _case(_exec_wall_seconds_not_float, "config key wall_seconds has a bad value 'x'"),
        _case(_query_k_not_int, "config key budget_k has a bad value 'x'"),
        _case(_run_max_output_tokens_negative, "max_output_tokens must be a finite number >= 1"),
        _case(_run_top_p_above_one, "top_p must be in (0, 1], got 7.0"),
        _case(_run_temperature_negative, "temperature must be a finite number >= 0"),
        _case(_sweep_tasks_not_utf8, "tasks.json: 'utf-8' codec can't decode"),
        _case(_replay_manifest_not_utf8, "manifest.json is corrupt"),
        _case(_run_config_unknown_key, "unknown config key 'not_a_key'"),
        _case(_run_config_line_without_equals, "config line 1 is not key = value"),
        _case(_run_spec_blank, "the task spec holds no text"),
        _case(_index_tree_without_source_files, "docs_only holds no source file of a known extension"),
        _case(_run_script_key_misspelled, "ScriptFile: unknown key 'entires'"),
        _case(_query_header_embedder_id_not_string, "corpus.snap has a malformed header"),
        _case(_run_suite_case_id_past_float, "suite.json: cases[0].id: expected int, got inf"),
        _case(_replay_manifest_version_past_float, "is malformed: version: expected int, got inf"),
        _case(_replay_round_wall_seconds_past_float, "is malformed: rounds[0].wall_seconds: expected float, got 1000"),
        _case(_query_header_count_past_float, "corpus.snap has a malformed header: count: expected int, got inf"),
        _case(_run_script_bare_list, "list_script.json: ScriptFile: expected an object, got list"),
    ],
)
def test_malformed_input_file_exits_two_with_one_line(tmp_path, task_files, capsys, malformed, fragment):
    argv = malformed(tmp_path, task_files)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0], err


@pytest.mark.parametrize("wall_seconds", ["nan", "inf"])
def test_exec_with_non_finite_wall_seconds_exits_two_with_one_line(tmp_path, task_files, capsys, wall_seconds):
    program = tmp_path / "program.py"
    program.write_text(FIXED_SUM, encoding="utf-8")
    _, suite, _ = task_files
    capsys.readouterr()
    code = main(["exec", "--program", str(program), "--suite", str(suite), "--wall-seconds", wall_seconds])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


_MOST_DIGITS = "9" * 4300  # the longest integer int() parses by default
# the smallest and largest value of each numeric key that parsing and the range checks accept
_EXTREME_VALUES = {
    "budget_b": ("1", _MOST_DIGITS),
    "budget_k": ("0", _MOST_DIGITS),
    "max_subgoals": ("0", _MOST_DIGITS),
    "temperature": ("0", repr(sys.float_info.max)),
    "top_p": ("5e-324", "1"),  # 5e-324 is the smallest positive float
    "max_output_tokens": ("1", _MOST_DIGITS),
    "seed": ("-" + _MOST_DIGITS, _MOST_DIGITS),
    "input_cap": ("1", _MOST_DIGITS),
    "wall_seconds": ("5e-324", "2147483.647"),
    "memory_bytes": ("1", str(2**63 - 1)),
    "delta": ("5e-324", "1"),
    "plan_gate_tokens": ("0", _MOST_DIGITS),
    "max_stack_lines": ("0", _MOST_DIGITS),
}


def test_the_extreme_values_cover_every_numeric_key():
    numeric = [key for key, value in DEFAULTS.items() if value is None or isinstance(value, (int, float))]
    assert list(_EXTREME_VALUES) == numeric


@pytest.mark.parametrize(
    "command, key, value",
    [
        pytest.param(command, key, value, id=f"{command}-{key}-{end}")
        for key, values in _EXTREME_VALUES.items()
        for end, value in zip(("smallest", "largest"), values)
        for command in ("exec", "run")
        if command == "run" or key in ("wall_seconds", "memory_bytes")
    ],
)
def test_no_flag_value_ends_in_a_traceback(tmp_path, task_files, capsys, monkeypatch, command, key, value):
    flag = ["--" + key.replace("_", "-"), value]
    if command == "exec":
        # the sandbox at the extreme caps, one process each
        program = tmp_path / "program.py"
        program.write_text(FIXED_SUM, encoding="utf-8")
        suite = tmp_path / "one.json"
        suite.write_text(json.dumps([{"id": 1, "input": "1 2", "expected": "3"}]), encoding="utf-8")
        argv = ["exec", "--program", str(program), "--suite", str(suite), *flag]
    else:
        # the large tier plans, retrieves and repairs; its tests run in-process
        monkeypatch.setattr("arcs.cli.ProcessExecutor", lambda caps: InProcessExecutor())
        argv = _run_args(tmp_path, task_files, "--tier", "large", "--snapshot", str(_index(tmp_path)), *flag)
    capsys.readouterr()
    code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _run_log_dir_is_a_file(tmp_path, task_files):
    log_dir = tmp_path / "rl"
    log_dir.write_text("not a directory", encoding="utf-8")
    return _run_args(tmp_path, task_files)


def _index_out_in_missing_dir(tmp_path, task_files):
    source_dir = tmp_path / "corpus"
    source_dir.mkdir()
    (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
    out = tmp_path / "missing" / "x.snapshot"
    return ["index", "--input", str(source_dir), "--out", str(out)]


def _sweep_report_in_missing_dir(tmp_path, task_files):
    _, suite, script = task_files
    tasks = tmp_path / "tasks.json"
    tasks.write_text(
        json.dumps([{"id": "t1", "spec": "sum", "suite_path": suite.name}]), encoding="utf-8"
    )
    report = tmp_path / "missing" / "r.json"
    return ["sweep", "--tasks", str(tasks), "--script", str(script), "--report", str(report)]


@pytest.mark.parametrize(
    "unwritable",
    [_run_log_dir_is_a_file, _index_out_in_missing_dir, _sweep_report_in_missing_dir],
)
def test_unwritable_output_exits_two_with_one_line(tmp_path, task_files, capsys, unwritable):
    argv = unwritable(tmp_path, task_files)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_index_stops_on_a_python_file_that_does_not_parse(tmp_path, capsys):
    broken_files = [
        ("broken.py", "def ok():\n    return 1\n\ndef broken(:\n    pass\n", 4),
        # an unclosed block is reported at its outermost open brace, a stray brace where it stands
        ("broken.c", "int ok(void) {\n    return 1;\n}\n\nint open(void) {\n    if (x) {\n        y();\n    }\n", 5),
        ("broken.c", "int ok(void) {\n    return 1;\n}\n}\n", 4),
    ]
    for case, (name, text, line) in enumerate(broken_files):
        source_dir = tmp_path / f"corpus{case}"
        source_dir.mkdir()
        (source_dir / "lib.py").write_text(THREE_FUNCTION_FILE, encoding="utf-8")
        (source_dir / name).write_text(text, encoding="utf-8")
        out = tmp_path / f"corpus{case}.snap"
        capsys.readouterr()
        code = main(["index", "--input", str(source_dir), "--out", str(out)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert name in err[0] and f"line {line}:" in err[0], err
        assert not out.exists()


def test_import_leaves_the_network_stack_unloaded():
    network = ("urllib.request", "http.client", "ssl")
    probe = f"import sys, arcs, arcs.cli; print([m for m in {network!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
