from __future__ import annotations

import json

import pytest

from arcs.controller import TIERS, RunDeps, TierConfig
from arcs.errors import ConfigError
from arcs.evalkit import (
    TaskRecord,
    ablation_matrix,
    ablation_tier,
    load_tasks,
    render_table,
    sweep,
)
from arcs.executor import InProcessExecutor
from arcs.model import ScriptedModel

from helpers import fenced, long_spec, make_suite, snapshot_from_embeddings, unit_vector

PLAN_ANSWER = "CONTRACT: c\nSKETCH: s\nSUBGOALS:\n- emit value: print it\n"


def _echo_task(task_id: str, value: str) -> TaskRecord:
    return TaskRecord(
        id=task_id,
        spec=long_spec(f"{task_id}: print exactly {value}"),
        suite=make_suite(("", value)),
    )


def _model_passing(values: dict[str, str], passing_ids: set[str]) -> ScriptedModel:
    entries = [{"needles": ["[[PLANNING]]"], "response": PLAN_ANSWER}]
    for task_id, value in values.items():
        output = value if task_id in passing_ids else "wrong"
        entries.append({"needles": [f"{task_id}:"], "response": fenced(f"print({output!r})")})
    return ScriptedModel(entries)


def test_pass_at_1_ratio():
    values = {f"t{i}": str(i) for i in range(4)}
    tasks = [_echo_task(task_id, value) for task_id, value in values.items()]
    model = _model_passing(values, passing_ids={"t0", "t1", "t2"})
    report = sweep(tasks, TIERS["small"], RunDeps(model=model, executor=InProcessExecutor()))
    assert report.pass_at_1 == pytest.approx(0.75)
    assert [outcome.task_id for outcome in report.outcomes] == sorted(values)


def test_pass_at_1_zero_when_nothing_passes():
    values = {"a": "1", "b": "2"}
    tasks = [_echo_task(task_id, value) for task_id, value in values.items()]
    model = _model_passing(values, passing_ids=set())
    report = sweep(tasks, TIERS["small"], RunDeps(model=model, executor=InProcessExecutor()))
    assert report.pass_at_1 == 0.0


def test_sweep_requires_unique_ids():
    task = _echo_task("same", "1")
    with pytest.raises(ConfigError):
        sweep([task, task], TIERS["small"], RunDeps(model=ScriptedModel([]), executor=InProcessExecutor()))


def test_sweep_records_task_failures_and_continues():
    ok = _echo_task("ok", "1")
    broken = _echo_task("zz-broken", "2")
    model = ScriptedModel(
        [
            {"needles": ["ok:"], "response": fenced("print('1')")},
            # no entry for zz-broken: hard model failure -> NoCandidateError
        ]
    )
    report = sweep([ok, broken], TIERS["small"], RunDeps(model=model, executor=InProcessExecutor()))
    assert report.pass_at_1 == pytest.approx(0.5)
    failed = next(outcome for outcome in report.outcomes if outcome.task_id == "zz-broken")
    assert failed.error is not None


def test_sweep_records_a_blank_spec_and_runs_the_other_task():
    ok = _echo_task("ok", "1")
    blank = TaskRecord(id="blank", spec=" \n\t", suite=make_suite(("", "2")))
    model = ScriptedModel([{"needles": ["ok:"], "response": fenced("print('1')")}])
    report = sweep([ok, blank], TIERS["small"], RunDeps(model=model, executor=InProcessExecutor()))
    outcomes = {outcome.task_id: outcome for outcome in report.outcomes}
    assert outcomes["ok"].passed and outcomes["ok"].error is None
    assert outcomes["blank"].error == "the task spec holds no text"
    assert not outcomes["blank"].passed and outcomes["blank"].rounds_used == 0


def test_sweep_is_deterministic():
    values = {"a": "1", "b": "2"}
    tasks = [_echo_task(task_id, value) for task_id, value in values.items()]

    def fresh_model():
        return _model_passing(values, passing_ids={"a"})

    first = sweep(tasks, TIERS["small"], RunDeps(model=fresh_model(), executor=InProcessExecutor()))
    second = sweep(tasks, TIERS["small"], RunDeps(model=fresh_model(), executor=InProcessExecutor()))
    assert first.to_jsonable() == second.to_jsonable()


def test_ablation_tier_projections():
    assert ablation_tier(()) == TIERS["small"]
    assert ablation_tier(("planning",)) == TIERS["medium"]
    assert ablation_tier(("retrieval", "planning", "feedback")) == TierConfig.large()
    assert ablation_tier(("retrieval",)) == TierConfig(k=10, iterations=1, planning=False)
    with pytest.raises(ConfigError):
        ablation_tier(("warp",))


def _component_fixture():
    """Tasks engineered so each component is necessary for one task.

    - task needing feedback: first answer wrong, corrected after feedback
    - task needing planning: correct only when a plan section is composed
    - task needing retrieval: correct only when evidence is composed
    """
    tasks = [
        _echo_task("needs-feedback", "fb"),
        _echo_task("needs-planning", "plan"),
        _echo_task("needs-retrieval", "ret"),
    ]
    entries = [
        {"needles": ["[[PLANNING]]"], "response": PLAN_ANSWER},
        {"needles": ["needs-feedback:"], "feedback": True, "response": fenced("print('fb')")},
        {"needles": ["needs-feedback:"], "feedback": False, "response": fenced("print('no')")},
        {"needles": ["needs-planning:", "[[PLAN]]"], "response": fenced("print('plan')")},
        {"needles": ["needs-planning:"], "response": fenced("print('no')")},
        {"needles": ["needs-retrieval:", "[[EVIDENCE"], "response": fenced("print('ret')")},
        {"needles": ["needs-retrieval:"], "response": fenced("print('no')")},
    ]

    def deps():
        snapshot = snapshot_from_embeddings(
            [unit_vector(8, i) for i in range(4)], embedder_id="hash8"
        )
        from arcs.embedding import HashingEmbedder

        return RunDeps(
            model=ScriptedModel(entries),
            executor=InProcessExecutor(),
            snapshot=snapshot,
            embedder=HashingEmbedder(8),
        )

    return tasks, deps


def test_ablation_matrix_shape_and_baseline():
    tasks, deps = _component_fixture()
    rows = ablation_matrix(tasks, deps(), base=TierConfig.large(k=2, iterations=3))
    labels = [label for label, _ in rows]
    assert len(rows) == 8
    assert labels[0] == "baseline"
    assert labels[-1] == "+retrieval+planning+feedback"
    baseline = rows[0][1]
    small = sweep(tasks, TIERS["small"], deps())
    assert baseline.to_jsonable() == small.to_jsonable()


def test_ablation_full_row_dominates_single_toggles():
    tasks, deps = _component_fixture()
    rows = dict(ablation_matrix(tasks, deps(), base=TierConfig.large(k=2, iterations=3)))
    full = rows["+retrieval+planning+feedback"].pass_at_1
    assert full == pytest.approx(1.0)
    for single in ("+retrieval", "+planning", "+feedback"):
        assert rows[single].pass_at_1 <= full
        assert rows[single].pass_at_1 == pytest.approx(1 / 3)
    assert rows["baseline"].pass_at_1 == 0.0


def test_feedback_toggle_direction_on_repair_fixture():
    tasks = [_echo_task("repairable", "ok")]
    entries = [
        {"needles": ["repairable:"], "feedback": True, "response": fenced("print('ok')")},
        {"needles": ["repairable:"], "feedback": False, "response": fenced("print('no')")},
    ]

    def deps():
        return RunDeps(model=ScriptedModel(entries), executor=InProcessExecutor())

    rows = dict(ablation_matrix(tasks, deps(), toggles=("feedback",)))
    assert rows["+feedback"].pass_at_1 > rows["baseline"].pass_at_1


def test_load_tasks_and_render_table(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        json.dumps({"cases": [{"id": 1, "input": "", "expected": "1"}]}), encoding="utf-8"
    )
    tasks_path = tmp_path / "tasks.json"
    tasks_path.write_text(
        json.dumps(
            [
                {"id": "a", "spec": "print 1", "suite_path": "suite.json", "tags": ["demo"]},
                {
                    "id": "b",
                    "spec": "print 1 again",
                    "suite": {"cases": [{"id": 1, "input": "", "expected": "1"}]},
                },
            ]
        ),
        encoding="utf-8",
    )
    tasks = load_tasks(tasks_path)
    assert [task.id for task in tasks] == ["a", "b"]
    assert tasks[0].tags == frozenset({"demo"})
    assert tasks[0].suite.m == 1

    model = ScriptedModel([{"response": fenced("print('1')")}])
    report = sweep(tasks, TIERS["small"], RunDeps(model=model, executor=InProcessExecutor()))
    table = render_table([("small", report)])
    assert "pass@1" in table and "small" in table
