from __future__ import annotations

import dataclasses
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs.controller import (
    RoundCost,
    RunDeps,
    TierConfig,
    best_so_far_trajectory,
    compare_run_logs,
    load_run_log,
    replay,
    run,
    save_run_log,
)
from arcs.embedding import HashingEmbedder
from arcs.errors import ConfigError, NoCandidateError, ReplayAssetError
from arcs.executor import InProcessExecutor, ProcessExecutor
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


def _deps(model, **overrides):
    return RunDeps(model=model, executor=InProcessExecutor(), **overrides)


def test_tier_projections_and_names():
    assert TierConfig.small().name == "small"
    assert TierConfig.medium().name == "medium"
    assert TierConfig.large().name == "large"
    assert TierConfig.large() == TierConfig(k=10, iterations=5, planning=True)
    projected = TierConfig(k=0, iterations=1, planning=False)
    assert projected == TierConfig.small()
    with pytest.raises(ValueError):
        TierConfig.large(k=0)
    with pytest.raises(ValueError):
        TierConfig(k=-1, iterations=1)


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
    result = run(SPEC, sum_suite(), TierConfig.small(), _deps(model))
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


def test_all_rounds_empty_raises_no_candidate_with_log():
    model = ScriptedModel([])
    with pytest.raises(NoCandidateError) as excinfo:
        run(SPEC, sum_suite(), TierConfig(k=0, iterations=3, planning=False), _deps(model))
    assert excinfo.value.run_log is not None
    assert excinfo.value.run_log.outcome["rounds_executed"] == 3


def test_empty_response_is_a_failing_candidate():
    model = ScriptedModel([{"response": ""}])
    result = run(SPEC, sum_suite(), TierConfig.small(), _deps(model))
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
    ]
    for key, value in out_of_range:
        deps = _deps(buggy_then_fixed_model(), config={key: value})
        with pytest.raises(ConfigError, match=key):
            run(SPEC, sum_suite(), TierConfig(k=0, iterations=2, planning=False), deps)


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


def test_small_runs_do_not_record_snapshot(snapshot, embedder):
    model = buggy_then_fixed_model()
    deps = RunDeps(
        model=model,
        executor=InProcessExecutor(),
        snapshot=snapshot,
        embedder=embedder,
    )
    result = run(SPEC, sum_suite(), TierConfig.small(), deps)
    assert result.log.snapshot_digest is None
    assert result.log.embedder_id is None


def test_large_projected_to_small_produces_identical_log(snapshot, embedder):
    suite = sum_suite()
    small_result = run(
        SPEC,
        suite,
        TierConfig.small(),
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
    result = run(spec, sum_suite(), TierConfig.medium(), _deps(model))
    round_log = result.log.rounds[0]
    assert round_log.plan is not None
    assert round_log.retrieval is None
    assert "[[PLAN]]" in round_log.composed_text
    assert "[[EVIDENCE" not in round_log.composed_text


def test_planning_gate_disables_plan_for_short_specs():
    model = buggy_then_fixed_model()
    result = run(SPEC, sum_suite(), TierConfig.medium(), _deps(model))
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
