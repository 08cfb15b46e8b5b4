"""The budgeted synthesize-execute-repair loop.

Each round optionally plans, refreshes evidence from the repaired prompt,
composes and truncates the enriched prompt, proposes a candidate from the
frozen model, executes it against the suite, and either halts on all-pass or
appends the encoded feedback. Every round is logged completely so scripted
runs replay bit-exactly, and the logged rounds are the run's only state: the
returned candidate (most tests passed, earliest round on ties) is read off
them after the loop, and the log derives its cost report from them. The run
numbers its own model calls, so one ``RunDeps`` serves many runs without a reset.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import planner as planner_mod
from . import prompting, retrieval
from .config import DEFAULTS, check_loop_settings
from .corpus import CorpusSnapshot
from .embedding import EmbeddingProvider
from .errors import (
    ConfigError,
    EmbedderMismatchError,
    ModelProposalError,
    NoCandidateError,
    ReplayAssetError,
)
from .executor import ExecutionFeedback, Executor, TestSuite, encode_feedback
from .model import DecodingParams, ProposalModel, Usage, extract_code
from .planner import Plan
from .util import TIMING, JsonRecord, json_digest, text_digest, utc_now_iso

log = logging.getLogger(__name__)

RUN_LOG_VERSION = 1
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class TierConfig(JsonRecord):
    """The paper's projection of the controller onto (k, iteration budget, planning).

    The tier name is derived from the parameters: it is the name of the
    preset in ``TIERS`` with the same shape (k > 0, more than one round,
    planning), else custom. Deriving the name keeps a large-tier controller
    projected to small-tier parameters identical to the small tier, log for
    log. The subgoal cap is the config key ``max_subgoals``.
    """

    k: int
    iterations: int
    planning: bool = False

    json_derived = ("name",)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("retrieval budget k must be >= 0")
        if self.iterations < 1:
            raise ValueError("iteration budget must be >= 1")

    @property
    def name(self) -> str:
        return next((name for name, preset in TIERS.items() if _shape(preset) == _shape(self)), "custom")

    @classmethod
    def named(cls, name: str, k: int | None = None, iterations: int | None = None) -> "TierConfig":
        """The preset ``name`` of ``TIERS``, with ``k`` and ``iterations`` overriding its budgets."""
        preset = TIERS.get(name)
        if preset is None:
            raise ConfigError(f"unknown tier {name!r}; expected small, medium, or large")
        return cls(
            k=preset.k if k is None else k,
            iterations=preset.iterations if iterations is None else iterations,
            planning=preset.planning,
        )

    @classmethod
    def large(cls, k: int | None = None, iterations: int | None = None) -> "TierConfig":
        tier = cls.named("large", k, iterations)
        if tier.k <= 0 or tier.iterations <= 1:
            raise ValueError("large tier requires k > 0 and more than one round")
        return tier


def _shape(tier: TierConfig) -> tuple[bool, bool, bool]:
    return tier.k > 0, tier.iterations > 1, tier.planning


# The paper's tiers; the config key tier names one, and budget_k and budget_b override its budgets.
TIERS = {
    "small": TierConfig(k=0, iterations=1, planning=False),
    "medium": TierConfig(k=0, iterations=1, planning=True),
    "large": TierConfig(k=10, iterations=5, planning=True),
}


@dataclass(frozen=True)
class RoundCost(JsonRecord):
    """Unit cost of one logged round: 1 per retrieval and test it ran, and a prompt
    and an answer per model call that returned (its plan, its proposal)."""

    retrieval: float
    prompt_input: float
    prompt_output: float
    execution: float

    @classmethod
    def of(cls, round_log: RoundLog) -> "RoundCost":
        calls = float((round_log.plan is not None) + (round_log.usage is not None))
        tests = len(round_log.feedback.verdicts) if round_log.feedback is not None else 0
        return cls(float(round_log.retrieval is not None), calls, calls, float(tests))

    @property
    def total(self) -> float:
        return self.retrieval + self.prompt_input + self.prompt_output + self.execution


@dataclass
class CostReport(JsonRecord):
    rounds: list[RoundCost] = field(default_factory=list)

    json_derived = ("total",)

    @property
    def total(self) -> float:
        return sum(round_cost.total for round_cost in self.rounds)


@dataclass(frozen=True)
class RunDeps:
    """Everything a run needs besides the task.

    ``config`` overrides keys of ``DEFAULTS``, range-checked as a flag is (a
    ConfigError); the run log holds it once, as given.
    """

    model: ProposalModel
    executor: Executor
    snapshot: CorpusSnapshot | None = None
    embedder: EmbeddingProvider | None = None
    denylist: frozenset[str] | None = None
    config: dict = field(default_factory=dict)


@dataclass
class RoundLog(JsonRecord):
    """Complete record of one round, sufficient for bit-exact replay."""

    t: int
    prompt_state: str
    plan: Plan | None
    retrieval: dict | None
    composed_text: str
    composed_digest: str
    candidate_raw: str | None
    program: str | None
    feedback: ExecutionFeedback | None
    usage: Usage | None
    wall_seconds: float = field(metadata=TIMING)


@dataclass
class RunLog(JsonRecord):
    """Per-run record: task, settings (``config`` only), assets, rounds, outcome.

    The cost is derived from the rounds, and its bound from the tier and the
    suite; an older log's setting echoes and stored cost are not fields, so
    loading ignores them.
    """

    spec: str
    suite: TestSuite
    tier: TierConfig
    snapshot_digest: str | None
    embedder_id: str | None
    model_id: str
    model_asset_digest: str | None
    template_fingerprints: dict
    environment_text: str
    config: dict
    rounds: list[RoundLog]
    outcome: dict
    created_at: str = field(default_factory=utc_now_iso, metadata=TIMING)
    version: int = RUN_LOG_VERSION

    json_derived = ("cost",)

    @property
    def seed(self) -> int:
        return {**DEFAULTS, **self.config}["seed"]

    @property
    def cost(self) -> CostReport:
        return CostReport(rounds=[RoundCost.of(round_log) for round_log in self.rounds])

    @property
    def cost_bound(self) -> float:
        """B rounds at the cost of the dearest round: a retrieval, every model call, m tests."""
        calls = 1.0 + self.tier.planning
        return self.tier.iterations * RoundCost(1.0, calls, calls, float(self.suite.m)).total


@dataclass(frozen=True)
class RunResult:
    program: str
    log: RunLog


def best_so_far_trajectory(run_log: RunLog) -> list[int]:
    """Running maximum of pass counts over the logged rounds."""
    best = 0
    trajectory = []
    for round_log in run_log.rounds:
        if round_log.feedback is not None:
            best = max(best, round_log.feedback.pass_count)
        trajectory.append(best)
    return trajectory


def current_template_fingerprints() -> dict:
    return {
        "prompting": prompting.template_fingerprint(),
        "planning": planner_mod.template_fingerprint(),
    }


def _invariants_text(suite: TestSuite) -> str:
    return (
        "The program reads from standard input and writes to standard output. "
        f"It must satisfy all {suite.m} input/output tests "
        f"(output comparison mode: {suite.compare})."
    )


def run(spec: str, suite: TestSuite, tier: TierConfig, deps: RunDeps) -> RunResult:
    """Execute at most ``tier.iterations`` synthesize-execute-repair rounds.

    Halts early when a candidate passes every test; otherwise returns the
    candidate with the most tests passed (earliest round on ties). A hard
    model failure consumes its round with an empty candidate; if every round
    is empty the run raises NoCandidateError carrying the log. A spec with no
    text is a ConfigError, raised before any model call.
    """
    if not spec.strip():
        raise ConfigError("the task spec holds no text")
    if tier.k > 0:
        if deps.snapshot is None:
            raise ConfigError("retrieval is enabled (k>0) but no corpus snapshot was provided")
        if deps.embedder is None:
            raise ConfigError("retrieval is enabled (k>0) but no embedder was provided")
        if deps.embedder.embedder_id != deps.snapshot.embedder_id:
            raise EmbedderMismatchError(
                f"snapshot embedder {deps.snapshot.embedder_id!r} does not match "
                f"provided embedder {deps.embedder.embedder_id!r}"
            )
    cfg = {**DEFAULTS, **deps.config}
    check_loop_settings(cfg)
    # the decoding keys of the config are the record's field names
    decoding = DecodingParams.from_jsonable(cfg)
    calls = itertools.count()

    def propose(prompt: prompting.ComposedPrompt) -> tuple[str, Usage]:
        return deps.model.propose(prompt, dataclasses.replace(decoding, call=next(calls)))

    environment_text = deps.executor.environment_description()
    invariants_text = _invariants_text(suite)

    q_t = spec
    feedback_segments: list = []
    prior: tuple[Plan, ExecutionFeedback] | None = None
    rounds: list[RoundLog] = []

    for t in range(tier.iterations):
        round_start = time.perf_counter()
        plan_t: Plan | None = None
        if tier.planning:
            plan_t = planner_mod.plan(
                q_t,
                propose,
                prior,
                max_subgoals=cfg["max_subgoals"],
                gate_tokens=cfg["plan_gate_tokens"],
            )
        evidence = None
        if tier.k > 0:
            evidence = retrieval.refresh(
                q_t,
                plan_t,
                tier.k,
                deps.snapshot,
                deps.embedder,
                cfg["delta"],
                deps.denylist,
            )
        composed = prompting.compose(
            task=spec,
            plan=plan_t,
            evidence=evidence,
            feedback_history=feedback_segments,
            invariants=invariants_text,
            environment=environment_text,
        )
        composed = prompting.truncate(composed, cfg["input_cap"])

        candidate_raw = usage = program = feedback = None
        try:
            candidate_raw, usage = propose(composed)
        except ModelProposalError as exc:
            log.warning("round %d: model hard failure (%s); recording an empty round", t, exc)
        if candidate_raw is not None:
            program = extract_code(candidate_raw)
            feedback = deps.executor.execute(program, suite)

        rounds.append(
            RoundLog(
                t=t,
                prompt_state=q_t,
                plan=plan_t,
                retrieval=evidence.to_jsonable() if evidence is not None else None,
                composed_text=composed.text,
                composed_digest=composed.digest,
                candidate_raw=candidate_raw,
                program=program,
                feedback=feedback,
                usage=usage,
                wall_seconds=time.perf_counter() - round_start,
            )
        )
        if feedback is None:
            continue
        if feedback.all_passed:
            break
        segment = encode_feedback(feedback, cfg["max_stack_lines"])
        feedback_segments.append(segment)
        q_t = q_t + "\n\n" + segment.text
        prior = (plan_t, feedback) if plan_t is not None else None

    # the all-pass round that halted the loop is also the earliest maximum
    best = max(
        (round_log for round_log in rounds if round_log.feedback is not None),
        key=lambda round_log: (round_log.feedback.pass_count, -round_log.t),
        default=None,
    )
    outcome = {
        "passed": best is not None and best.feedback.all_passed,
        "returned_round": best.t if best is not None else None,
        "returned_program": best.program if best is not None else None,
        "best_pass_count": best.feedback.pass_count if best is not None else 0,
        "rounds_executed": len(rounds),
        "suite_size": suite.m,
    }
    run_log = RunLog(
        spec=spec,
        suite=suite,
        tier=tier,
        snapshot_digest=deps.snapshot.content_digest if tier.k > 0 else None,
        embedder_id=deps.embedder.embedder_id if tier.k > 0 else None,
        model_id=deps.model.model_id,
        model_asset_digest=getattr(deps.model, "script_digest", None),
        template_fingerprints=current_template_fingerprints(),
        environment_text=environment_text,
        config=dict(deps.config),
        rounds=rounds,
        outcome=outcome,
    )
    if best is None:
        raise NoCandidateError(
            "no candidate: every round ended with an empty proposal", run_log
        )
    return RunResult(program=best.program, log=run_log)


def save_run_log(run_log: RunLog, directory: str | Path) -> Path:
    """Persist a run log as a manifest plus one file per round, replacing any earlier rounds."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("round_*.json"):
        stale.unlink()
    round_entries = []
    for round_log in run_log.rounds:
        name = f"round_{round_log.t:03d}.json"
        text = json.dumps(round_log.to_jsonable(include_timing=True), indent=2, sort_keys=True)
        (directory / name).write_text(text, encoding="utf-8")
        round_entries.append({"file": name, "digest": text_digest(text)})
    manifest = run_log.to_jsonable(include_timing=True)
    manifest["rounds"] = round_entries
    manifest["config_digest"] = json_digest(run_log.config)
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    return directory


def load_run_log(directory: str | Path) -> RunLog:
    """Load a persisted run log of this version, verifying its config and per-round digests."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReplayAssetError(f"run log manifest {manifest_path} is unreadable: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ReplayAssetError(f"run log manifest {manifest_path} is corrupt") from exc
    try:
        rounds = [
            _read_round(directory, entry["file"], entry["digest"]) for entry in manifest["rounds"]
        ]
        run_log = RunLog.from_jsonable({**manifest, "rounds": rounds})
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplayAssetError(f"run log {directory} is malformed: {exc}") from exc
    if run_log.version != RUN_LOG_VERSION:
        raise ReplayAssetError(f"run log {directory} has unsupported version {run_log.version}")
    if manifest.get("config_digest") != json_digest(run_log.config):
        raise ReplayAssetError(f"run log {directory} failed its config digest check")
    return run_log


def _read_round(directory: Path, name: str, digest: str) -> dict:
    if Path(name).name != name:
        raise ReplayAssetError(f"round file {name} is not a file name in {directory}")
    try:
        text = (directory / name).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReplayAssetError(f"round file {name} is missing") from exc
    if text_digest(text) != digest:
        raise ReplayAssetError(f"round file {name} failed its digest check")
    return json.loads(text)


def replay(run_log: RunLog, deps: RunDeps) -> RunLog:
    """Re-execute a logged run from its frozen assets and configuration.

    Raises ReplayAssetError naming the divergent asset when a required
    digest or identifier does not match. Returns the fresh log, also for a
    run that found no candidate; compare with ``compare_run_logs`` (wall
    times excluded).
    """
    if deps.model.model_id != run_log.model_id:
        raise ReplayAssetError(
            f"model id {deps.model.model_id!r} differs from logged {run_log.model_id!r}"
        )
    if run_log.model_asset_digest is not None:
        current = getattr(deps.model, "script_digest", None)
        if current != run_log.model_asset_digest:
            raise ReplayAssetError("model script digest differs from the logged asset")
    if run_log.snapshot_digest is not None:
        if deps.snapshot is None:
            raise ReplayAssetError(
                f"snapshot with digest {run_log.snapshot_digest} is required but missing"
            )
        if deps.snapshot.content_digest != run_log.snapshot_digest:
            raise ReplayAssetError(
                f"snapshot digest {deps.snapshot.content_digest} differs from logged "
                f"{run_log.snapshot_digest}"
            )
        if deps.embedder is None or deps.embedder.embedder_id != run_log.embedder_id:
            raise ReplayAssetError(f"embedder {run_log.embedder_id!r} is required for replay")
    if current_template_fingerprints() != run_log.template_fingerprints:
        raise ReplayAssetError("prompt template fingerprints differ from the logged versions")
    replay_deps = dataclasses.replace(deps, config=dict(run_log.config))
    try:
        return run(run_log.spec, run_log.suite, run_log.tier, replay_deps).log
    except NoCandidateError as exc:
        return exc.run_log


def compare_run_logs(first: RunLog, second: RunLog) -> list[str]:
    """Paths of fields that differ, ignoring wall times and timestamps."""
    differences: list[str] = []
    _diff(
        first.to_jsonable(include_timing=False),
        second.to_jsonable(include_timing=False),
        "",
        differences,
    )
    return differences


def _diff(left, right, path, out):
    if isinstance(left, dict) and isinstance(right, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left or key not in right:
                out.append(f"{path}/{key}")
            else:
                _diff(left[key], right[key], f"{path}/{key}", out)
        return
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            out.append(f"{path}/length")
            return
        for position, (a, b) in enumerate(zip(left, right)):
            _diff(a, b, f"{path}[{position}]", out)
        return
    if left != right:
        out.append(path or "/")
