from __future__ import annotations

import dataclasses
import json
import re
import shutil
import threading
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs import controller
from arcs.controller import (
    RoundCost,
    RunDeps,
    TIERS,
    TierConfig,
    best_so_far_trajectory,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from arcs.embedding import HashingEmbedder
from arcs.errors import (
    ConfigError,
    ContextExhaustedError,
    NoCandidateError,
    ReplayAssetError,
    SandboxSetupError,
)
from arcs.executor import FEEDBACK_QUOTE_CHARS, Executor, InProcessExecutor, ProcessExecutor, encode_feedback
from arcs.model import ScriptedModel

from helpers import (
    BUGGY_SUM,
    FIXED_SUM,
    PLAN_ANSWER,
    CountingModel,
    buggy_then_fixed_model,
    constant_model,
    fenced,
    long_spec,
    make_suite,
    snapshot_from_embeddings,
    sum_suite,
)

SPEC = "Read two integers from one stdin line and print their sum."
GOLDEN_RUNLOG = Path(__file__).parent / "golden" / "runlog"


def _deps(model, **overrides):
    return RunDeps(model=model, executor=InProcessExecutor(), **overrides)


def test_tier_projections_and_names():
    for name, preset in TIERS.items():
        assert preset.name == name
        assert TierConfig.named(name) == preset
    assert TierConfig.large() == TierConfig.large(iterations=5) == TierConfig(k=10, iterations=5, planning=True)
    assert TierConfig.large(k=3, iterations=3) == TierConfig(k=3, iterations=3, planning=True)
    assert TierConfig.named("small", iterations=3) == TierConfig(k=0, iterations=3, planning=False)
    assert TierConfig.named("small", iterations=3).name == "custom"
    assert TierConfig.named("large", k=2).name == "large"
    projected = TierConfig(k=0, iterations=1, planning=False)
    assert projected == TIERS["small"]
    with pytest.raises(ValueError):
        TierConfig.large(k=0)
    with pytest.raises(ConfigError, match="unknown tier 'bogus'; expected small, medium, or large"):
        TierConfig.named("bogus")
    with pytest.raises(ValueError):
        TierConfig(k=-1, iterations=1)


@pytest.mark.parametrize(
    ("field", "fields"),
    [
        ("iterations", {"k": 0, "iterations": True}),  # its log would not load: a bool is no int
        ("planning", {"k": 0, "iterations": 1, "planning": 1}),
        ("iterations", {"k": 0, "iterations": 2.5}),
        ("k", {"k": "1", "iterations": 1}),
        ("k", {"k": 0.0, "iterations": 1}),
    ],
    ids=["iterations_bool", "planning_int", "iterations_float", "k_text", "k_float"],
)
def test_tier_fields_of_the_wrong_type_are_refused(field, fields):
    with pytest.raises(ValueError, match=f"^{field}: expected "):
        TierConfig(**fields)


def test_repair_loop_passes_at_round_one():
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), _deps(model))
    assert result.log.outcome["passed"] is True
    assert result.log.outcome["returned_round"] == 1
    assert result.log.outcome["rounds_executed"] == 2
    assert result.program.strip() == FIXED_SUM
    assert result.log.rounds[0].feedback.pass_count == 0
    assert result.log.rounds[1].feedback.pass_count == 3


def test_feedback_disabled_never_passes():
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TIERS["small"], _deps(model))
    assert result.log.outcome["passed"] is False
    assert result.log.outcome["rounds_executed"] == 1
    assert result.program.strip() == BUGGY_SUM


def test_all_pass_at_round_zero_halts_immediately():
    model = constant_model(FIXED_SUM)
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), _deps(model))
    assert result.log.outcome["rounds_executed"] == 1
    assert result.log.outcome["returned_round"] == 0
    assert result.log.outcome["passed"] is True


def test_budget_exhaustion_returns_argmax_with_earliest_tie_break():
    # pass counts per round: 1, 0, 2 -> round 2 candidate returned
    programs = [
        "print('3')",        # passes only test 1 of the sum suite
        "print('nothing')",  # passes none
        "a, b = map(int, input().split())\nprint(a + b if a != 1 else 0)",  # passes 2
    ]
    model = ScriptedModel(
        [{"ordinal": i, "response": fenced(code)} for i, code in enumerate(programs)]
    )
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=3, planning=False), _deps(model))
    assert result.log.outcome["passed"] is False
    assert result.log.outcome["returned_round"] == 2
    assert result.log.outcome["best_pass_count"] == 2
    assert result.program.strip().endswith("else 0)")


def test_model_hard_failure_consumes_round():
    entries = [{"ordinal": 1, "response": fenced(FIXED_SUM)}]  # ordinal 0 has no match
    model = ScriptedModel(entries)
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2, planning=False), _deps(model))
    assert result.log.rounds[0].candidate_raw is None
    assert result.log.rounds[0].feedback is None
    assert result.log.outcome["passed"] is True
    assert result.log.outcome["returned_round"] == 1
    assert result.log.cost.rounds[0].total == 0.0


class SetupFailsOnSecondCall(InProcessExecutor):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def execute(self, program, suite):
        self.calls += 1
        if self.calls == 2:
            raise SandboxSetupError("no workspace")
        return super().execute(program, suite)


@pytest.mark.parametrize(
    ("error", "executor_type", "config"),
    [
        # round 1's feedback quotes 150 tokens of the 500-token input, past the input cap
        (ContextExhaustedError, InProcessExecutor, {"input_cap": 200}),
        (SandboxSetupError, SetupFailsOnSecondCall, {}),
    ],
    ids=["context_exhausted", "sandbox_setup"],
)
def test_an_error_that_ends_a_run_carries_the_rounds_it_finished(error, executor_type, config):
    suite = make_suite((" ".join(["7"] * 500), "never"))
    deps = RunDeps(model=constant_model("print('y')"), executor=executor_type(), config=config)
    with pytest.raises(error) as excinfo:
        run(SPEC, suite, TierConfig(k=0, iterations=3, planning=False), deps)
    run_log = excinfo.value.run_log
    assert [round_log.t for round_log in run_log.rounds] == [0]
    assert run_log.outcome["rounds_executed"] == 1 and run_log.outcome["best_pass_count"] == 0
    assert run_log.cost.total == 3.0 and run_log.config == config


def test_all_rounds_empty_raises_no_candidate_with_log():
    model = ScriptedModel([])
    with pytest.raises(NoCandidateError) as excinfo:
        run(SPEC, sum_suite(), TierConfig(k=0, iterations=3, planning=False), _deps(model))
    assert excinfo.value.run_log is not None
    assert excinfo.value.run_log.outcome["rounds_executed"] == 3


def test_empty_response_is_a_failing_candidate():
    model = ScriptedModel([{"response": ""}])
    result = run(SPEC, sum_suite(), TIERS["small"], _deps(model))
    assert result.log.rounds[0].program == ""
    assert result.log.rounds[0].feedback.pass_count == 0
    assert result.log.outcome["passed"] is False


@pytest.mark.parametrize(
    "counts, returned",
    [([1, 3, 2], 1), ([2, 0, 2], 0), ([None, 1, 1], 1)],
    ids=["greater_count_wins", "tie_keeps_earliest", "hard_failure_never_returned"],
)
def test_returned_round_rules(counts, returned):
    # round t's candidate passes counts[t] of four tests (None: no proposal)
    suite = make_suite(("1", "1"), ("2", "2"), ("3", "3"), ("4", "4"))
    programs = {
        t: f"x = int(input())\nprint(x if x <= {count} else 0)"
        for t, count in enumerate(counts)
        if count is not None
    }
    model = ScriptedModel(
        [{"ordinal": t, "response": fenced(code)} for t, code in programs.items()]
    )
    tier = TierConfig(k=0, iterations=len(counts), planning=False)
    result = run(SPEC, suite, tier, _deps(model))
    outcome = result.log.outcome
    assert outcome["returned_round"] == returned
    assert outcome["best_pass_count"] == counts[returned]
    assert outcome["passed"] is False
    assert result.program.strip() == programs[returned]
    assert [r.feedback.pass_count if r.feedback else None for r in result.log.rounds] == counts
    assert best_so_far_trajectory(result.log) == list(accumulate((c or 0 for c in counts), max))


def test_best_so_far_trajectory_is_non_decreasing():
    programs = ["print('3')", "print('x')", "print('3')"]
    model = ScriptedModel(
        [{"ordinal": i, "response": fenced(code)} for i, code in enumerate(programs)]
    )
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=3, planning=False), _deps(model))
    trajectory = best_so_far_trajectory(result.log)
    assert trajectory == [1, 1, 1]
    assert all(a <= b for a, b in zip(trajectory, trajectory[1:]))


def test_cost_bound_reference_value():
    model = constant_model(FIXED_SUM)
    log = run(SPEC, sum_suite(), TierConfig(k=0, iterations=1), _deps(model)).log
    # B=5 rounds of a retrieval, a prompt and an answer per model call, and m=3 tests
    bounds = [
        dataclasses.replace(log, tier=TierConfig(k=10, iterations=5, planning=planning)).cost_bound
        for planning in (False, True)
    ]
    assert bounds == [30.0, 40.0]


def test_cost_bound_holds_for_a_real_run():
    model = buggy_then_fixed_model()
    suite = sum_suite()
    tier = TierConfig(k=0, iterations=5, planning=False)
    log = run(SPEC, suite, tier, _deps(model)).log
    assert log.cost.total <= log.cost_bound
    # two rounds, unit costs, no retrieval at k=0: each round 1+1+m
    assert log.cost.total == pytest.approx(2 * (2 + suite.m))


def test_each_stage_is_priced_at_unit_cost(snapshot, embedder):
    # round 0 is a hard model failure: only its retrieval ran
    model = ScriptedModel([{"ordinal": 1, "response": fenced(FIXED_SUM)}])
    deps = _deps(model, snapshot=snapshot, embedder=embedder)
    suite = sum_suite()
    report = run(SPEC, suite, TierConfig(k=2, iterations=2, planning=False), deps).log.cost
    assert report.rounds == [RoundCost(1.0, 0.0, 0.0, 0.0), RoundCost(1.0, 1.0, 1.0, suite.m)]
    assert report.total == 1.0 + 3.0 + suite.m


def test_every_model_call_that_returned_is_priced(snapshot, embedder):
    model = CountingModel(buggy_then_fixed_model())
    deps = _deps(model, snapshot=snapshot, embedder=embedder, config={"plan_gate_tokens": 0})
    report = run(SPEC, sum_suite(), TierConfig.large(k=2, iterations=3), deps).log.cost
    # a plan and a proposal in each of the two rounds
    assert model.returned == 4
    assert sum(cost.prompt_input for cost in report.rounds) == model.returned
    assert sum(cost.prompt_output for cost in report.rounds) == model.returned


# What a round's proposal does against the sum suite; None is a proposal the
# script does not answer.
BEHAVIOURS = {
    "pass": FIXED_SUM,
    "wrong output": BUGGY_SUM,
    "one of three": "print(4)",
    "raise": "raise ValueError('boom')",
    "exit code": "import sys\nsys.exit(3)",
    "exit message": "import sys\nsys.exit('msg')",
    "unanswered": None,
}


@pytest.fixture(scope="module")
def small_corpus():
    embedder = HashingEmbedder(16)
    texts = [f"helper routine number {i}" for i in range(4)]
    snapshot = snapshot_from_embeddings([embedder.embed(t) for t in texts], embedder.embedder_id)
    return {"snapshot": snapshot, "embedder": embedder}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    k=st.sampled_from([0, 2]),
    planning=st.booleans(),
    # per round: is the planning call answered, and what does the proposal do
    rounds=st.lists(
        st.tuples(st.booleans(), st.sampled_from(sorted(BEHAVIOURS))), min_size=1, max_size=5
    ),
)
def test_termination_improvement_and_bounded_cost_hold_over_generated_runs(
    small_corpus, k, planning, rounds
):
    entries = []
    ordinal = 0
    for plan_answered, behaviour in rounds:
        if planning:
            if plan_answered:
                entries.append({"ordinal": ordinal, "response": PLAN_ANSWER})
            ordinal += 1
        if BEHAVIOURS[behaviour] is not None:
            entries.append({"ordinal": ordinal, "response": fenced(BEHAVIOURS[behaviour])})
        ordinal += 1
    model = CountingModel(ScriptedModel(entries))
    retrieval = small_corpus if k else {}
    deps = _deps(model, config={"plan_gate_tokens": 0}, **retrieval)
    tier = TierConfig(k=k, iterations=len(rounds), planning=planning)
    try:
        log = run(SPEC, sum_suite(), tier, deps).log
    except NoCandidateError as exc:
        log = exc.run_log

    # termination: at most B rounds, ending at the first all-pass round
    behaviours = [behaviour for _, behaviour in rounds]
    halted = behaviours.index("pass") + 1 if "pass" in behaviours else len(rounds)
    assert len(log.rounds) == log.outcome["rounds_executed"] == halted
    all_passed = [r.feedback is not None and r.feedback.all_passed for r in log.rounds]
    assert not any(all_passed[:-1])
    # monotone improvement: the returned round is the earliest maximum
    trajectory = best_so_far_trajectory(log)
    assert trajectory == sorted(trajectory)
    counts = [r.feedback.pass_count if r.feedback is not None else -1 for r in log.rounds]
    earliest_best = counts.index(max(counts)) if max(counts) >= 0 else None
    assert log.outcome["returned_round"] == earliest_best
    # bounded cost, with every model call that returned priced
    assert log.cost.total <= log.cost_bound
    assert sum(cost.prompt_input for cost in log.cost.rounds) == model.returned
    assert sum(cost.prompt_output for cost in log.cost.rounds) == model.returned


def test_library_config_is_range_checked_like_a_flag():
    out_of_range = [
        ("max_stack_lines", -1),
        ("input_cap", 0),
        ("max_output_tokens", -5),
        ("top_p", 7.0),
        ("top_p", 0.0),
        ("temperature", -1.0),
        ("seed", 7.9),
        ("max_output_tokens", True),
        ("delta", "x"),
        ("max_subgoals", True),
        ("plan_gate_tokens", "3"),
        ("max_stack_lines", 2.5),
        ("max_subgoals", 2.5),
        ("plan_gate_tokens", 2.5),
        ("input_cap", 4096.0),
        ("model", 5),
        ("sede", 7),
    ]
    for key, value in out_of_range:
        model = CountingModel(buggy_then_fixed_model())
        with pytest.raises(ConfigError, match=key):
            run(SPEC, sum_suite(), TierConfig(k=0, iterations=2, planning=False), _deps(model, config={key: value}))
        assert model.returned == 0


def test_a_config_holding_the_retired_embedder_key_runs_with_its_other_keys():
    seeds = []

    class SeedRecorder(CountingModel):
        def propose(self, prompt, params):
            seeds.append(params.seed)
            return super().propose(prompt, params)

    deps = _deps(SeedRecorder(buggy_then_fixed_model()), config={"embedder": "hash384", "seed": 3})
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2, planning=False), deps)
    assert result.log.outcome["passed"] and seeds == [3, 3] and result.log.seed == 3


def test_retrieval_requires_snapshot():
    model = constant_model(FIXED_SUM)
    with pytest.raises(ConfigError):
        run(SPEC, sum_suite(), TierConfig.large(), _deps(model))


def test_run_log_round_trip(tmp_path):
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), _deps(model))
    directory = save_run_log(result.log, tmp_path / "log")
    loaded = load_run_log(directory)
    assert compare_run_logs(result.log, loaded) == []
    assert loaded.outcome == result.log.outcome


def test_a_shorter_log_saved_over_a_longer_one_leaves_no_stale_rounds(tmp_path):
    model = constant_model("print(4)")
    longer = run(SPEC, sum_suite(), TierConfig(k=0, iterations=3), _deps(model)).log
    shorter = run(SPEC, sum_suite(), TierConfig(k=0, iterations=1), _deps(model)).log
    save_run_log(longer, tmp_path)
    save_run_log(shorter, tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["manifest.json", "round_000.json"]
    assert compare_run_logs(load_run_log(tmp_path), shorter) == []


def test_tampered_round_file_is_detected(tmp_path):
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), _deps(model))
    directory = save_run_log(result.log, tmp_path / "log")
    target = directory / "round_000.json"
    text = target.read_text(encoding="utf-8")
    target.write_text(text.replace("wrong_output", "wrong_OUTPUT", 1), encoding="utf-8")
    with pytest.raises(ReplayAssetError) as excinfo:
        load_run_log(directory)
    assert "round_000.json" in str(excinfo.value)


@pytest.mark.parametrize("where", ["../other", "sub", "absolute"])
def test_a_round_file_outside_the_log_directory_is_refused(tmp_path, where):
    # a copy of the round whose digest matches, named by a path that leaves the directory
    directory = shutil.copytree(GOLDEN_RUNLOG, tmp_path / "log")
    target = (directory / where) if where != "absolute" else tmp_path / "elsewhere"
    target.mkdir()
    shutil.copy(directory / "round_000.json", target / "round_000.json")
    name = str(target / "round_000.json") if where == "absolute" else f"{where}/round_000.json"
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    manifest["rounds"][0]["file"] = name
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ReplayAssetError) as excinfo:
        load_run_log(directory)
    assert name in str(excinfo.value)


def test_replay_reproduces_the_run(tmp_path):
    model = buggy_then_fixed_model()
    deps = _deps(model)
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), deps)
    directory = save_run_log(result.log, tmp_path / "log")
    loaded = load_run_log(directory)
    fresh = replay(loaded, deps)
    assert compare_run_logs(loaded, fresh) == []


def test_replay_runs_with_the_logged_config_overrides(tmp_path):
    deps = _deps(buggy_then_fixed_model(), config={"input_cap": 300, "seed": 7})
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), deps)
    assert result.log.seed == 7
    assert result.log.config == {"input_cap": 300, "seed": 7}
    loaded = load_run_log(save_run_log(result.log, tmp_path / "log"))
    assert compare_run_logs(loaded, replay(loaded, _deps(buggy_then_fixed_model()))) == []


def test_replay_survives_exception_verdicts_in_the_process_sandbox():
    # the traceback names the candidate file; its workspace path is random
    deps = RunDeps(model=constant_model("raise ValueError('boom')"), executor=ProcessExecutor())
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2), deps)
    assert set(result.log.rounds[0].feedback.verdicts) == {"exception"}
    assert compare_run_logs(result.log, replay(result.log, deps)) == []


def test_saved_sandbox_run_through_the_network_guard_replays(tmp_path):
    program = 'import socket\nsocket.create_connection(("127.0.0.1", 9))'
    deps = RunDeps(model=constant_model(program), executor=ProcessExecutor())
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2), deps)
    assert set(result.log.rounds[0].feedback.verdicts) == {"exception"}
    loaded = load_run_log(save_run_log(result.log, tmp_path / "log"))
    assert compare_run_logs(loaded, replay(loaded, deps)) == []


# what a feedback line adds around the field it quotes, and the mark of a cut quote
_FEEDBACK_PREFIX = re.compile(r"^(\[test \d+\] |input: |summary: |stack:|  )")
_CUT_MARK = re.compile(r" \[\d+ more characters cut\]$")


@pytest.mark.parametrize(
    "program, given, expected",
    [
        ("print(0)", " ".join(map(str, range(5000))), str(sum(range(5000)))),
        ("raise ValueError(' '.join(['word'] * 6000))", "1 2", "3"),
        ("print(' '.join(['word'] * 6000))", "1 2", "3"),
    ],
    ids=["long_input", "long_exception_message", "long_wrong_line"],
)
def test_a_long_failure_field_is_quoted_within_the_bound(program, given, expected):
    # each field quoted whole holds more tokens than the small tier's input cap of 4,096
    deps = RunDeps(model=constant_model(program), executor=ProcessExecutor())
    result = run(SPEC, make_suite((given, expected)), TierConfig.named("small", iterations=3), deps)
    assert len(result.log.rounds) == 3
    for round_log in result.log.rounds:
        for line in encode_feedback(round_log.feedback).text.splitlines()[1:]:
            field = _CUT_MARK.sub("", _FEEDBACK_PREFIX.sub("", line))
            assert len(field) <= FEEDBACK_QUOTE_CHARS + len('""')  # an input is quoted as JSON


class _HoldingExecutor(Executor):
    """Runs in process, but holds the first execution of ``held_suite`` until released."""

    def __init__(self, held_suite):
        self.inner = InProcessExecutor()
        self.held_suite = held_suite
        self.holding = threading.Event()
        self.released = threading.Event()

    def environment_description(self) -> str:
        return self.inner.environment_description()

    def execute(self, program, suite):
        # the pause comes before the inner call: the runs never redirect stdio at once
        if suite is self.held_suite and not self.holding.is_set():
            self.holding.set()
            self.released.wait(timeout=30)
        return self.inner.execute(program, suite)


def test_one_rundeps_serves_interleaved_runs():
    # answers by call number only, so any call numbered by another run gets another answer
    model = ScriptedModel(
        [
            {"ordinal": 0, "response": fenced("print(0)")},
            {"ordinal": 1, "response": fenced(FIXED_SUM)},
            {"response": fenced("print('a call numbered past its run')")},
        ]
    )
    suite_a, suite_b = sum_suite(), make_suite(("3 4", "7"), ("0 0", "0"))
    executor = _HoldingExecutor(suite_a)
    deps = RunDeps(model=model, executor=executor)
    tier = TierConfig(k=0, iterations=2)
    interleaved = {}

    def run_a():
        interleaved["a"] = run(SPEC, suite_a, tier, deps).log

    thread = threading.Thread(target=run_a)
    thread.start()
    try:
        assert executor.holding.wait(timeout=30)
        interleaved["b"] = run(SPEC, suite_b, tier, deps).log
    finally:
        executor.released.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    alone_a = run(SPEC, suite_a, tier, deps).log
    alone_b = run(SPEC, suite_b, tier, deps).log
    assert [r.program for r in alone_a.rounds] == ["print(0)", FIXED_SUM]
    assert compare_run_logs(interleaved["a"], alone_a) == []
    assert compare_run_logs(interleaved["b"], alone_b) == []


def test_replay_rejects_wrong_script():
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TierConfig(k=0, iterations=5, planning=False), _deps(model))
    other = constant_model("print('different script')")
    other.model_id = "scripted"
    with pytest.raises(ReplayAssetError):
        replay(result.log, _deps(other))


def test_replay_rejects_missing_snapshot(snapshot, embedder):
    model = buggy_then_fixed_model()
    deps = RunDeps(
        model=model,
        executor=InProcessExecutor(),
        snapshot=snapshot,
        embedder=embedder,
    )
    tier = TierConfig.large(k=2, iterations=2)
    result = run(long_spec(SPEC), sum_suite(), tier, deps)
    assert result.log.snapshot_digest == snapshot.content_digest
    stripped = dataclasses.replace(deps, snapshot=None)
    with pytest.raises(ReplayAssetError) as excinfo:
        replay(result.log, stripped)
    assert "snapshot" in str(excinfo.value)


def _first_round(log, **changes) -> dict:
    """The changes to ``log`` that replace its first round's fields."""
    return {"rounds": [dataclasses.replace(log.rounds[0], **changes), *log.rounds[1:]]}


@pytest.mark.parametrize(
    "changes, paths",
    [
        (lambda log: {"spec": "another task"}, ["/spec"]),
        (lambda log: _first_round(log, program="print(0)"), ["/rounds[0]/program"]),
        (lambda log: {"config": {**log.config, "seed": 9}}, ["/config/seed"]),
        (lambda log: _first_round(log, feedback=dataclasses.replace(log.rounds[0].feedback, failures=())),
         ["/rounds[0]/feedback/failures/length"]),
    ],
    ids=["changed_value", "changed_nested_value", "key_on_one_side_only", "list_of_another_length"],
)
def test_compare_run_logs_names_each_difference_by_its_path(changes, paths):
    log = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2), _deps(buggy_then_fixed_model())).log
    assert log.config == {} and log.rounds[0].feedback.failures
    changed = dataclasses.replace(log, **changes(log))
    assert compare_run_logs(log, changed) == paths
    assert compare_run_logs(changed, log) == paths


def _with_model_id(model, model_id):
    model.model_id = model_id
    return model


@pytest.mark.parametrize(
    "diverge, asset",
    [
        (lambda deps, log: {"model": _with_model_id(buggy_then_fixed_model(), "another")}, "model id"),
        (lambda deps, log: {"model": _with_model_id(constant_model(FIXED_SUM), log.model_id)}, "script digest"),
        (lambda deps, log: {"snapshot": dataclasses.replace(deps.snapshot, content_digest="0" * 64)},
         "snapshot digest"),
        (lambda deps, log: {"embedder": None}, "embedder"),
    ],
    ids=["model_id", "script_digest", "snapshot_digest", "missing_embedder"],
)
def test_replay_names_the_asset_that_differs(snapshot, embedder, diverge, asset):
    deps = RunDeps(
        model=buggy_then_fixed_model(), executor=InProcessExecutor(), snapshot=snapshot, embedder=embedder
    )
    log = run(long_spec(SPEC), sum_suite(), TierConfig.large(k=2, iterations=2), deps).log
    assert compare_run_logs(log, replay(log, deps)) == []
    with pytest.raises(ReplayAssetError, match=asset):
        replay(log, dataclasses.replace(deps, **diverge(deps, log)))


def test_replay_rejects_changed_prompt_templates(monkeypatch):
    deps = _deps(buggy_then_fixed_model())
    log = run(SPEC, sum_suite(), TierConfig(k=0, iterations=2), deps).log
    logged = controller.current_template_fingerprints()
    monkeypatch.setattr(controller, "current_template_fingerprints", lambda: {**logged, "task": "changed"})
    with pytest.raises(ReplayAssetError, match="template fingerprints"):
        replay(log, deps)


def test_small_runs_do_not_record_snapshot(snapshot, embedder):
    model = buggy_then_fixed_model()
    deps = RunDeps(
        model=model,
        executor=InProcessExecutor(),
        snapshot=snapshot,
        embedder=embedder,
    )
    result = run(SPEC, sum_suite(), TIERS["small"], deps)
    assert result.log.snapshot_digest is None
    assert result.log.embedder_id is None


def test_large_projected_to_small_produces_identical_log(snapshot, embedder):
    suite = sum_suite()
    small_result = run(
        SPEC,
        suite,
        TIERS["small"],
        RunDeps(model=buggy_then_fixed_model(), executor=InProcessExecutor()),
    )
    projected = TierConfig(k=0, iterations=1, planning=False)
    projected_result = run(
        SPEC,
        suite,
        projected,
        RunDeps(
            model=buggy_then_fixed_model(),
            executor=InProcessExecutor(),
            snapshot=snapshot,
            embedder=embedder,
        ),
    )
    assert compare_run_logs(small_result.log, projected_result.log) == []


def test_medium_tier_plans_without_evidence():
    model = buggy_then_fixed_model()
    spec = long_spec(SPEC)
    result = run(spec, sum_suite(), TIERS["medium"], _deps(model))
    round_log = result.log.rounds[0]
    assert round_log.plan is not None
    assert round_log.retrieval is None
    assert "[[PLAN]]" in round_log.composed_text
    assert "[[EVIDENCE" not in round_log.composed_text


def test_planning_gate_disables_plan_for_short_specs():
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TIERS["medium"], _deps(model))
    assert result.log.rounds[0].plan is None


def test_large_tier_full_loop(snapshot, embedder):
    deps = RunDeps(
        model=buggy_then_fixed_model(),
        executor=InProcessExecutor(),
        snapshot=snapshot,
        embedder=embedder,
    )
    result = run(long_spec(SPEC), sum_suite(), TierConfig.large(k=3, iterations=4), deps)
    assert result.log.outcome["passed"] is True
    first = result.log.rounds[0]
    assert first.plan is not None
    assert first.retrieval is not None
    assert first.retrieval["snapshot_digest"] == snapshot.content_digest
    assert len(first.retrieval["indices"]) <= 3
    assert "[[EVIDENCE 1]]" in first.composed_text
