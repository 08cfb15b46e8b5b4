"""Command-line entry point: index, query, exec, run, replay, sweep.

Exit codes: 0 success, 1 task failure (the loop ran but the returned
candidate does not pass, or replay diverged), 2 configuration or usage
error, an output path that cannot be written, or an error that stopped a
run (which still writes the log of its finished rounds). Diagnostics go to
stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import DEFAULTS, checked, coerce, load_config_file, read_input_file, resolve_config
from .controller import (
    TIERS,
    RunDeps,
    TierConfig,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from .corpus import LANGUAGE_BY_EXTENSION, ingest, load_snapshot, save_snapshot
from .embedding import DEFAULT_DIMENSION, embedder_for
from .errors import ArcsError, ConfigError, NoCandidateError
from .evalkit import ablation_matrix, ablation_tier, load_tasks, render_table, sweep
from .executor import ProcessExecutor, ResourceCaps, encode_feedback, load_suite
from .model import RemoteModel, ScriptedModel
from .retrieval import RetrievalQuery, load_denylist, top_k


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcs",
        description="Budgeted synthesize-execute-repair loop over a frozen proposal model.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="ingest a source tree into a frozen snapshot")
    p_index.add_argument("--input", required=True, help="directory of source files")
    p_index.add_argument("--out", required=True, help="snapshot output path")
    p_index.add_argument(
        "--embedder", default=f"hash{DEFAULT_DIMENSION}", help="hash<dim> or a remote embedder id"
    )
    p_index.add_argument("--embed-endpoint", default="", help="remote embedding endpoint URL")
    p_index.set_defaults(handler=_cmd_index)

    p_query = sub.add_parser("query", help="top-k retrieval against a snapshot")
    p_query.add_argument("--snapshot", required=True)
    p_query.add_argument("--q", required=True, help="query text")
    p_query.add_argument("-k", default=str(TIERS["large"].k))
    p_query.add_argument("--denylist", default="", help="file with one blocked identifier per line")
    p_query.add_argument("--embed-endpoint", default="")
    p_query.set_defaults(handler=_cmd_query)

    p_exec = sub.add_parser("exec", help="run a program against a suite in the sandbox")
    p_exec.add_argument("--program", required=True)
    p_exec.add_argument("--suite", required=True)
    p_exec.add_argument("--wall-seconds", default=str(DEFAULTS["wall_seconds"]))
    p_exec.add_argument("--memory-bytes", default=str(DEFAULTS["memory_bytes"]))
    p_exec.set_defaults(handler=_cmd_exec)

    p_run = sub.add_parser("run", help="run the synthesize-execute-repair loop on one task")
    _add_run_options(p_run)
    p_run.add_argument("--spec", required=True, help="task specification file")
    p_run.add_argument("--suite", required=True, help="test suite file")
    p_run.add_argument("--log-dir", default="arcs_runlog", help="run log output directory")
    p_run.set_defaults(handler=_cmd_run)

    p_replay = sub.add_parser("replay", help="re-execute a logged run and diff the logs")
    p_replay.add_argument("--log", required=True, help="run log directory")
    p_replay.add_argument("--script", default=None, help="scripted model file (overrides logged path)")
    p_replay.add_argument("--snapshot", default=None, help="snapshot path (overrides logged path)")
    p_replay.set_defaults(handler=_cmd_replay)

    p_sweep = sub.add_parser("sweep", help="run a task set, optionally as an ablation matrix")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--tasks", required=True, help="task-set file")
    p_sweep.add_argument(
        "--ablate",
        default="",
        help="comma-separated toggles from retrieval,planning,feedback",
    )
    p_sweep.add_argument("--report", default="", help="write a JSON summary to this path")
    p_sweep.set_defaults(handler=_cmd_sweep)
    return parser


def _add_run_options(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--config", default="", help="key = value config file")
    for key in DEFAULTS:
        sub_parser.add_argument("--" + key.replace("_", "-"), help=f"config key {key}")


def _resolved_config(args) -> dict:
    file_values = load_config_file(args.config) if args.config else {}
    flag_values = {
        key: coerce(key, raw) for key, raw in vars(args).items() if key in DEFAULTS and raw is not None
    }
    return resolve_config(flag_values, file_values)


@contextmanager
def _writing(path):
    """A failure to write the output at ``path`` is a ConfigError, exit code 2."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _tier_from_config(cfg: dict) -> TierConfig:
    return checked(TierConfig.named, cfg["tier"], k=cfg["budget_k"], iterations=cfg["budget_b"])


def _model_from_config(cfg: dict):
    if cfg["model"] == "scripted":
        if not cfg["script"]:
            raise ConfigError("scripted model selected but no --script file given")
        return ScriptedModel.from_file(cfg["script"])
    if cfg["model"] == "remote":
        if not cfg["endpoint"]:
            raise ConfigError("remote model selected but no --endpoint given")
        return RemoteModel(cfg["endpoint"])
    raise ConfigError(f"unknown model adapter {cfg['model']!r}")


def _deps_from_config(cfg: dict, tier: TierConfig) -> RunDeps:
    caps = checked(ResourceCaps, wall_seconds=cfg["wall_seconds"], memory_bytes=cfg["memory_bytes"])
    snapshot = None
    embedder = None
    if tier.k > 0:
        if not cfg["snapshot"]:
            raise ConfigError("retrieval is enabled (k>0) but no --snapshot was given")
        snapshot = load_snapshot(cfg["snapshot"])
        embedder = checked(embedder_for, snapshot.embedder_id, cfg["embed_endpoint"], snapshot.dimension)
    denylist = load_denylist(cfg["denylist"]) if cfg["denylist"] else None
    return RunDeps(
        model=_model_from_config(cfg),
        executor=ProcessExecutor(caps=caps),
        snapshot=snapshot,
        embedder=embedder,
        denylist=denylist,
        config=dict(cfg),
    )


def _cmd_index(args) -> int:
    embedder = checked(embedder_for, args.embedder, args.embed_endpoint)
    root = Path(args.input)
    if not root.is_dir():
        raise ConfigError(f"input {root} is not a directory")
    paths = [p for p in root.rglob("*") if p.is_file() and p.suffix.lower() in LANGUAGE_BY_EXTENSION]
    if not paths:
        known = ", ".join(sorted(LANGUAGE_BY_EXTENSION))
        raise ConfigError(f"input {root} holds no source file of a known extension ({known})")
    snapshot = ingest(paths, embedder)
    with _writing(args.out):
        save_snapshot(snapshot, args.out)
    print(f"{args.out} items={len(snapshot.items)} digest={snapshot.content_digest}")
    return 0


def _cmd_query(args) -> int:
    snapshot = load_snapshot(args.snapshot)
    embedder = checked(embedder_for, snapshot.embedder_id, args.embed_endpoint, snapshot.dimension)
    denylist = load_denylist(args.denylist) if args.denylist else None
    query = checked(RetrievalQuery, args.q, coerce("budget_k", args.k))
    result = top_k(query, snapshot, embedder, denylist)
    for item, score in result.items:
        print(f"{item.index}\t{score:.6f}\t{item.signature}\t{item.source_path}")
    return 0


def _cmd_exec(args) -> int:
    program = read_input_file(args.program, "program")
    suite = load_suite(args.suite)
    caps = {key: coerce(key, getattr(args, key)) for key in ("wall_seconds", "memory_bytes")}
    feedback = ProcessExecutor(caps=checked(ResourceCaps, **caps)).execute(program, suite)
    print(encode_feedback(feedback).text)
    return 0 if feedback.all_passed else 1


def _cmd_run(args) -> int:
    cfg = _resolved_config(args)
    spec = read_input_file(args.spec, "spec")
    suite = load_suite(args.suite)
    tier = _tier_from_config(cfg)
    deps = _deps_from_config(cfg, tier)
    log_dir = Path(args.log_dir)
    program_path = log_dir / "program.py"
    try:
        result = run(spec, suite, tier, deps)
    except ArcsError as exc:
        if exc.run_log is not None:
            with _writing(log_dir):
                save_run_log(exc.run_log, log_dir)
                program_path.unlink(missing_ok=True)
        if not isinstance(exc, NoCandidateError):
            raise
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    with _writing(log_dir):
        save_run_log(result.log, log_dir)
        program_path.write_text(result.program, encoding="utf-8")
    print(str(program_path))
    if result.log.outcome["passed"]:
        return 0
    print(
        f"budget exhausted: best candidate passes "
        f"{result.log.outcome['best_pass_count']}/{suite.m} tests",
        file=sys.stderr,
    )
    return 1


def _cmd_replay(args) -> int:
    run_log = load_run_log(args.log)
    overrides = {"model": "scripted", "script": args.script} if args.script else {}
    if args.snapshot:
        overrides["snapshot"] = args.snapshot
    cfg = resolve_config(overrides, run_log.config)
    fresh = replay(run_log, _deps_from_config(cfg, run_log.tier))
    differences = compare_run_logs(run_log, fresh)
    if differences:
        print("replay diverged on:", file=sys.stderr)
        for path in differences:
            print(f"  {path}", file=sys.stderr)
        return 1
    print("replay identical on all comparable fields")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolved_config(args)
    tasks = load_tasks(args.tasks)
    tier = _tier_from_config(cfg)
    if args.ablate:
        toggles = tuple(part.strip() for part in args.ablate.split(",") if part.strip())
        base = TierConfig.large(tier.k or None, tier.iterations if tier.iterations > 1 else None)
        # the row that enables every toggle needs the most: its deps serve each row
        deps = _deps_from_config(cfg, ablation_tier(toggles, base))
        rows = ablation_matrix(tasks, deps, toggles, base)
    else:
        rows = [(tier.name, sweep(tasks, tier, _deps_from_config(cfg, tier)))]
    print(render_table(rows))
    if args.report:
        summary = {label: report.to_jsonable() for label, report in rows}
        with _writing(args.report):
            Path(args.report).write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except ArcsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
