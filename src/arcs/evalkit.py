"""Desk-scale benchmark aggregation: sweeps, pass@1, and ablation toggles."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Sequence

from .controller import TIERS, RunDeps, TierConfig, best_so_far_trajectory, run
from .errors import ArcsError, ConfigError
from .executor import TestSuite, load_suite
from .util import JsonRecord, decode_record

log = logging.getLogger(__name__)

ABLATION_TOGGLES = ("retrieval", "planning", "feedback")


@dataclass(frozen=True)
class TaskRecord:
    """One benchmark task: a spec, its suite, and grouping tags."""

    id: str
    spec: str
    suite: TestSuite
    tags: frozenset[str] = frozenset()


@dataclass
class TaskOutcome(JsonRecord):
    task_id: str
    passed: bool
    rounds_used: int
    trajectory: list[int]
    best_pass_count: int
    cost_total: float
    error: str | None = None


@dataclass
class SweepReport(JsonRecord):
    tier: TierConfig
    outcomes: list[TaskOutcome] = field(default_factory=list)

    json_derived = ("pass_at_1", "cost_total")

    @property
    def pass_at_1(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.passed) / len(self.outcomes)

    @property
    def cost_total(self) -> float:
        return sum(outcome.cost_total for outcome in self.outcomes)


def sweep(tasks: Sequence[TaskRecord], tier: TierConfig, deps: RunDeps) -> SweepReport:
    """One controller run per task under a shared tier configuration.

    Individual task failures are recorded and the sweep continues. Outcomes
    are ordered by task id, so the report is independent of input order.
    """
    if not tasks:
        raise ConfigError("a sweep requires at least one task")
    ids = [task.id for task in tasks]
    if len(set(ids)) != len(ids):
        raise ConfigError("task ids must be unique within a task set")
    report = SweepReport(tier=tier)
    for task in sorted(tasks, key=lambda t: t.id):
        error = None
        try:
            run_log = run(task.spec, task.suite, tier, deps).log
        except ArcsError as exc:
            log.warning("task %s failed: %s", task.id, exc)
            run_log, error = exc.run_log, str(exc)
        report.outcomes.append(
            TaskOutcome(
                task_id=task.id,
                passed=bool(run_log and run_log.outcome["passed"]),
                rounds_used=run_log.outcome["rounds_executed"] if run_log else 0,
                trajectory=best_so_far_trajectory(run_log) if run_log else [],
                best_pass_count=run_log.outcome["best_pass_count"] if run_log else 0,
                cost_total=run_log.cost.total if run_log else 0.0,
                error=error,
            )
        )
    return report


def ablation_tier(enabled: Sequence[str], base: TierConfig = TIERS["large"]) -> TierConfig:
    """Map a set of enabled components onto ``base``'s budgets."""
    unknown = set(enabled) - set(ABLATION_TOGGLES)
    if unknown:
        raise ConfigError(f"unknown ablation toggles: {sorted(unknown)}")
    return TierConfig(
        k=base.k if "retrieval" in enabled else 0,
        iterations=base.iterations if "feedback" in enabled else 1,
        planning="planning" in enabled,
    )


def ablation_matrix(
    tasks: Sequence[TaskRecord],
    deps: RunDeps,
    toggles: Sequence[str] = ABLATION_TOGGLES,
    base: TierConfig = TIERS["large"],
) -> list[tuple[str, SweepReport]]:
    """One sweep per toggle combination; rows keyed by the enabled set."""
    ablation_tier(toggles, base)  # refuses an unknown toggle before the first sweep
    ordered_toggles = [toggle for toggle in ABLATION_TOGGLES if toggle in toggles]
    rows: list[tuple[str, SweepReport]] = []
    for size in range(len(ordered_toggles) + 1):
        for combo in combinations(ordered_toggles, size):
            label = "baseline" if not combo else "+" + "+".join(combo)
            tier = ablation_tier(combo, base)
            rows.append((label, sweep(tasks, tier, deps)))
    return rows


@dataclass(frozen=True)
class _TaskJson:
    """One record of a task-set file as written; ``spec`` wins over ``spec_path``."""

    id: str
    spec: str | None = None
    spec_path: str | None = None
    suite: TestSuite | None = None
    suite_path: str | None = None
    tags: tuple[str, ...] = ()


def load_tasks(path: str | Path) -> list[TaskRecord]:
    """Task-set file: a JSON list of {id, spec|spec_path, suite|suite_path, tags}."""
    path = Path(path)
    try:
        records = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read task set {path}: {exc}") from exc
    if not isinstance(records, list):
        raise ConfigError(f"task set {path} must be a JSON list")
    tasks = []
    for position, record in enumerate(records):
        try:
            task = decode_record(_TaskJson, record, f"record {position}")
            if task.spec is None and task.spec_path is None:
                raise ValueError(f"record {position} needs spec or spec_path")
            if task.suite is None and task.suite_path is None:
                raise ValueError(f"record {position} needs suite or suite_path")
            spec, suite = task.spec, task.suite
            if spec is None:
                spec = (path.parent / task.spec_path).read_text(encoding="utf-8")
            if suite is None:
                suite = load_suite(path.parent / task.suite_path)
            tasks.append(TaskRecord(task.id, spec, suite, frozenset(task.tags)))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"task set {path} has a bad record: {exc}") from exc
    return tasks


def render_table(rows: Sequence[tuple[str, SweepReport]]) -> str:
    """Fixed-width text table of ablation or sweep rows."""
    header = ("configuration", "pass@1", "tasks", "cost")
    body = [
        (
            label,
            f"{report.pass_at_1:.3f}",
            str(len(report.outcomes)),
            f"{report.cost_total:.1f}",
        )
        for label, report in rows
    ]
    widths = [max(len(row[col]) for row in [header, *body]) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
        for row in [header, *body]
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
