from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcs.errors import ModelProposalError
from arcs.model import DecodingParams, ScriptedModel
from arcs.planner import (
    Plan,
    build_planning_prompt,
    canonical_name,
    canonicalize,
    failure_summary,
    parse_plan_text,
    plan,
    token_count,
)
from arcs.executor import FEEDBACK_QUOTE_CHARS, ExecutionFeedback, FailureDetail, ProcessExecutor

from helpers import PLAN_ANSWER, long_spec, make_suite


def _plan_model(answer=PLAN_ANSWER):
    """A ``propose`` callable that answers every planning call with ``answer``."""
    model = ScriptedModel([{"response": answer}])
    return lambda prompt: model.propose(prompt, DecodingParams())


def test_token_count_cases():
    assert token_count("") == 0
    assert token_count("a b  c") == 3
    words = " ".join(f"w{i}" for i in range(500))
    # independent split routine: count transitions into non-space runs
    independent = 0
    in_run = False
    for ch in words:
        if ch.isspace():
            in_run = False
        elif not in_run:
            independent += 1
            in_run = True
    assert token_count(words) == independent == 500


def test_gate_rejects_short_prompts():
    q_119 = " ".join(f"t{i}" for i in range(119))
    assert token_count(q_119) == 119
    assert plan(q_119, _plan_model()) is None


def test_gate_passes_at_threshold():
    q_120 = " ".join(f"t{i}" for i in range(120))
    result = plan(q_120, _plan_model())
    assert result is not None
    assert result.subgoals == (
        ("parse input", "split stdin into integers"),
        ("compute sum", "add the two values"),
    )


def test_six_subgoals_truncate_to_four():
    answer = "SUBGOALS:\n" + "\n".join(f"- goal {i}: body {i}" for i in range(6))
    result = plan(long_spec("task"), _plan_model(answer))
    assert result is not None
    assert len(result.subgoals) == 4
    assert result.subgoals[0][0] == "goal 0"
    assert result.subgoals[-1][0] == "goal 3"


def test_case_and_whitespace_duplicates_collapse():
    answer = "SUBGOALS:\n- Parse Input: a\n- parse  input: a\n"
    result = plan(long_spec("task"), _plan_model(answer))
    assert result is not None
    assert result.subgoals == (("parse input", "a"),)


def test_model_failure_yields_absent_plan():
    failing = ScriptedModel([])  # no entry ever matches
    assert plan(long_spec("task"), lambda prompt: failing.propose(prompt, DecodingParams())) is None


def test_adapter_bug_is_not_swallowed():
    def broken(prompt):
        raise TypeError("adapter bug")

    with pytest.raises(TypeError):
        plan(long_spec("task"), broken)


def test_canonicalize_rules():
    assert canonicalize([("A", ""), ("a", "")]) == [("a", "")]
    assert canonicalize([("x", "b1"), ("x", "b2")]) == [("x", "b1")]
    assert canonicalize([]) == []
    assert canonicalize([("Read, the input!", "b")]) == [("read the input", "b")]


@given(st.text(max_size=60))
def test_canonical_name_idempotent(name):
    once = canonical_name(name)
    assert canonical_name(once) == once


def test_canonicalize_idempotent_on_fixture():
    subgoals = [("Parse Input", "a"), ("parse input", "b"), ("Emit-Output", "c")]
    once = canonicalize(subgoals)
    assert canonicalize(once) == once


def test_parser_tolerates_missing_sections():
    contract, sketch, subgoals = parse_plan_text("CONTRACT: ints in, int out")
    assert contract == "ints in, int out"
    assert sketch == ""
    assert subgoals == []
    # no sections at all
    assert parse_plan_text("free text") == ("", "", [])


def test_parser_reads_bullets_without_bodies():
    _, _, subgoals = parse_plan_text("SUBGOALS:\n- lone name\n* starred: with body")
    assert subgoals == [("lone name", ""), ("starred", "with body")]


def test_replan_prompt_carries_prior_headers_and_failures():
    prior_plan = Plan(contract="c", sketch="s", subgoals=(("parse input", ""),))
    feedback = ExecutionFeedback(
        test_ids=(1, 2),
        verdicts=("pass", "exception"),
        pass_count=1,
        failures=(
            FailureDetail(test_id=2, input="x", kind="ValueError", summary="bad literal"),
        ),
        wall_times=(0.0, 0.0),
    )
    prompt = build_planning_prompt("the task", 4, prior=(prior_plan, feedback))
    assert "PRIOR SUBGOALS: parse input" in prompt
    assert "1/2 tests passed" in prompt
    assert "test 2: ValueError" in prompt


def test_failure_summary_quotes_a_kind_within_the_feedback_bound():
    program = "import sys\nsys.stderr.write('A' * 100_000)\nsys.exit(1)"
    feedback = ProcessExecutor().execute(program, make_suite(("", "x")))
    assert feedback.failures[0].kind == "A" * 100_000
    dropped = 100_000 - FEEDBACK_QUOTE_CHARS
    assert failure_summary(feedback) == (
        f"0/1 tests passed; test 1: {'A' * FEEDBACK_QUOTE_CHARS} [{dropped} more characters cut]"
    )
