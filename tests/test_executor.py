from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import types
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcs import _child
from arcs.errors import SandboxSetupError
from arcs.executor import (
    _OUTPUT_CAP,
    _STDERR_KEEP_LINES,
    EXCEPTION,
    FEEDBACK_QUOTE_CHARS,
    MEMORY_EXCEEDED,
    PASS,
    TIMEOUT,
    WRONG_OUTPUT,
    ExecutionFeedback,
    FailureDetail,
    InProcessExecutor,
    ProcessExecutor,
    ResourceCaps,
    _judge,
    _last_line,
    encode_feedback,
    first_difference,
    load_suite,
    normalize_output,
)
from arcs.executor import TestCase as SuiteCase
from arcs.executor import TestSuite as Suite

from helpers import make_suite

ECHO = "import sys\nsys.stdout.write(sys.stdin.read())"
SUM = "a, b = map(int, input().split())\nprint(a + b)"
OFF_BY_ONE_ON_22 = (
    "a, b = map(int, input().split())\n"
    "print(a + b + 1 if (a, b) == (2, 2) else a + b)"
)
# distinct frames so the traceback is not collapsed by the interpreter
RAISER = "\n".join(
    [f"def f{i}():\n    return f{i + 1}()" for i in range(14)]
    + ["def f14():\n    raise ValueError('boom at depth')", "f0()"]
)


@pytest.fixture(params=["process", "in_process"])
def executor(request):
    if request.param == "process":
        return ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0))
    return InProcessExecutor()


def test_echo_program_passes_all(executor):
    suite = make_suite(("a\n", "a"), ("b\n", "b"), ("c\n", "c"))
    feedback = executor.execute(ECHO, suite)
    assert feedback.verdicts == (PASS, PASS, PASS)
    assert feedback.pass_count == 3
    assert feedback.all_passed


def test_wrong_on_exactly_test_two(executor):
    suite = make_suite(("1 2", "3"), ("2 2", "4"), ("10 5", "15"))
    feedback = executor.execute(OFF_BY_ONE_ON_22, suite)
    assert feedback.verdicts == (PASS, WRONG_OUTPUT, PASS)
    assert feedback.pass_count == 2
    assert len(feedback.failures) == 1
    detail = feedback.failures[0]
    assert detail.test_id == 2
    assert detail.input == "2 2"
    assert "expected '4' got '5'" in detail.summary


def test_exception_verdict_with_kind(executor):
    suite = make_suite(("", "never"))
    feedback = executor.execute(RAISER, suite)
    assert feedback.verdicts == (EXCEPTION,)
    assert feedback.failures[0].kind == "ValueError"
    assert len(feedback.failures[0].detail_lines) > 10


def test_library_frames_are_named_relative_to_the_interpreters_library(executor):
    # a run log then replays under any install location of the same Python version
    feedback = executor.execute('import json\njson.loads("x")', make_suite(("", "never")))
    lines = feedback.failures[0].detail_lines
    assert any(line.strip().startswith('File "json/decoder.py", line ') for line in lines), lines
    assert not any(sys.base_prefix in line for line in lines), lines


def test_timeout_verdict_within_grace():
    caps = ResourceCaps(wall_seconds=1.0)
    suite = make_suite(("", "never"))
    started = time.perf_counter()
    feedback = ProcessExecutor(caps=caps).execute("while True:\n    pass", suite)
    elapsed = time.perf_counter() - started
    assert feedback.verdicts == (TIMEOUT,)
    assert elapsed < caps.wall_seconds + 1.0
    assert feedback.failures[0].kind == "timeout"
    assert feedback.failures[0].detail_lines == ()


def test_detached_grandchild_holding_the_outputs_does_not_hold_the_verdict(tmp_path):
    pid_file = tmp_path / "grandchild.pid"
    program = """\
import subprocess, sys
grandchild = subprocess.Popen(["sleep", "4"], start_new_session=True)
with open(sys.stdin.read().strip(), "w") as handle:
    handle.write(str(grandchild.pid))
print("started")
"""
    caps = ResourceCaps(wall_seconds=1.0)
    started = time.perf_counter()
    try:
        feedback = ProcessExecutor(caps=caps).execute(program, make_suite((str(pid_file), "started")))
        elapsed = time.perf_counter() - started
        assert feedback.verdicts == (PASS,), feedback.failures
        assert elapsed < caps.wall_seconds
    finally:
        with suppress(OSError):  # the grandchild is gone or never started
            pid = int(pid_file.read_text(encoding="utf-8"))
            if Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")[:2] == [b"sleep", b"4"]:
                os.kill(pid, signal.SIGKILL)


def test_the_test_is_judged_when_the_candidate_exits(tmp_path):
    # a writer in a group of its own outlives the group kill; what it writes later is not judged
    pid_file = tmp_path / "writer.pid"
    program = """\
import subprocess, sys
writer = subprocess.Popen(["sh", "-c", "sleep 1; echo late"], start_new_session=True)
with open(sys.stdin.read().strip(), "w") as handle:
    handle.write(str(writer.pid))
print("answer")
"""
    started = time.perf_counter()
    try:
        feedback = ProcessExecutor().execute(program, make_suite((str(pid_file), "answer")))
        assert time.perf_counter() - started < 1.0
        assert feedback.verdicts == (PASS,), feedback.failures
    finally:
        with suppress(OSError):  # the writer is gone or never started
            pid = int(pid_file.read_text(encoding="utf-8"))
            if Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")[:2] == [b"sh", b"-c"]:
                os.kill(pid, signal.SIGKILL)


def test_output_past_the_cap_is_not_kept():
    # measured in a child process, whose max RSS no earlier test has raised
    probe = textwrap.dedent(
        """\
        import resource
        from arcs.executor import _OUTPUT_CAP, ProcessExecutor, TestCase, TestSuite

        executor = ProcessExecutor()
        suite = TestSuite((TestCase(1, "", "x"),))
        executor.execute("print('x')", suite)  # imports and first-run allocations
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        program = "import sys\\nfor _ in range(40):\\n    sys.stdout.write('x' * 10**6)"
        feedback = executor.execute(program, suite)
        grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
        print(feedback.verdicts[0], feedback.failures[0].summary, grown, _OUTPUT_CAP, sep="|")
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    verdict, summary, grown, cap = child.stdout.strip().split("|")
    assert verdict == WRONG_OUTPUT
    assert cap in summary
    assert int(grown) < 2 * int(cap)


def test_judging_a_long_stderr_splits_only_its_kept_head():
    # measured in a child process, whose max RSS no earlier test has raised
    probe = textwrap.dedent(
        """\
        import resource
        from arcs.executor import _OUTPUT_CAP, ProcessExecutor, TestCase, TestSuite

        executor = ProcessExecutor()
        suite = TestSuite((TestCase(1, "", "x"),))
        executor.execute("import sys\\nsys.exit(1)", suite)  # imports and first-run allocations
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        program = "import sys\\nsys.stderr.write('abc\\\\n' * 10**6)\\nsys.exit(1)"
        feedback = executor.execute(program, suite)
        grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
        print(feedback.verdicts[0], len(feedback.failures[0].detail_lines), grown, _OUTPUT_CAP, sep="|")
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    verdict, kept, grown, cap = child.stdout.strip().split("|")
    assert (verdict, int(kept)) == (EXCEPTION, _STDERR_KEEP_LINES)
    assert int(grown) < 3 * int(cap)


@pytest.mark.parametrize(
    "stderr",
    [
        *("".join(f"line {i}{end}" for i in range(300)) for end in ("\n", "\r\n", "\r", "\x0c", "\u2028")),
        "one\ntwo\r\nthree",
        "x\r\n" * 199 + "\x0c\r\n",
    ],
    ids=["lf", "crlf", "cr", "form_feed", "line_separator", "fewer_lines", "empty_line_at_the_cut"],
)
def test_kept_stderr_lines_are_the_head_of_all_its_lines(stderr):
    _, detail = _judge(SuiteCase(1, "", "x"), "trim", 1, "", stderr, None, None)
    assert detail.detail_lines == tuple(stderr.splitlines()[:_STDERR_KEEP_LINES])


# long chunks reach past the tail the judge first looks at for the last line
_STDERR_CHUNKS = ["a", "b c", " ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "d" * 5000, " " * 5000, "\n" * 3000]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_STDERR_CHUNKS), max_size=12))
def test_the_summary_is_the_last_non_blank_line_of_all_of_stderr(chunks):
    stderr = "".join(chunks)
    _, detail = _judge(SuiteCase(1, "", "x"), "trim", 1, "", stderr, None, None)
    named = [line.strip() for line in stderr.splitlines() if line.strip()]
    assert detail.summary == (named[-1] if named else "exit code 1")


def test_candidate_killed_by_a_signal_is_an_exception_naming_it():
    program = "import os, signal\nos.kill(os.getpid(), signal.SIGKILL)"
    feedback = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0)).execute(program, make_suite(("", "x")))
    assert feedback.verdicts == (EXCEPTION,)
    (failure,) = feedback.failures
    assert (failure.kind, failure.summary) == ("signal 9", "exit code -9")


def test_memory_cap_maps_to_memory_exceeded():
    caps = ResourceCaps(wall_seconds=10.0, memory_bytes=256 * 1024 * 1024)
    suite = make_suite(("", "never"))
    hog = "x = bytearray(1024 * 1024 * 1024)\nprint('made it')"
    feedback = ProcessExecutor(caps=caps).execute(hog, suite)
    assert feedback.verdicts == (MEMORY_EXCEEDED,)


def test_file_size_cap_stops_a_write_past_the_output_cap():
    # a sparse write: it takes no disk space below the cap
    program = (
        "with open('big', 'wb') as handle:\n"
        f"    handle.seek({_OUTPUT_CAP + 1})\n"
        "    handle.write(b'x')\n"
        "print('wrote')"
    )
    feedback = ProcessExecutor().execute(program, make_suite(("", "wrote")))
    assert feedback.verdicts == (EXCEPTION,)
    assert feedback.failures[0].summary == "OSError: [Errno 27] File too large"


def test_a_scratch_file_past_the_output_cap_is_an_exception():
    program = "with open('scratch', 'wb') as handle:\n    handle.write(b'x' * 5_000_000)\nprint('wrote')"
    feedback = ProcessExecutor().execute(program, make_suite(("", "wrote")))
    assert feedback.verdicts == (EXCEPTION,)
    assert feedback.failures[0].summary == "OSError: [Errno 27] File too large"


@pytest.mark.parametrize(
    ("size", "verdict"), [(_OUTPUT_CAP, PASS), (_OUTPUT_CAP + 1, WRONG_OUTPUT)], ids=["at_cap", "past_cap"]
)
def test_stdout_is_judged_up_to_the_output_cap(size, verdict):
    program = f"import sys\nsys.stdout.write('x' * {size})"
    feedback = ProcessExecutor().execute(program, make_suite(("", "x" * size)))
    assert feedback.verdicts == (verdict,)
    if verdict == WRONG_OUTPUT:
        assert str(_OUTPUT_CAP) in feedback.failures[0].summary


def test_no_file_descriptor_is_left_open_after_a_test():
    # a process file descriptor is a bare integer, so no ResourceWarning would name a leaked one
    executor = ProcessExecutor(caps=ResourceCaps(wall_seconds=0.25))
    programs = [
        ("print('a')", PASS),
        ("while True:\n    pass", TIMEOUT),
        (f"print('x' * {_OUTPUT_CAP + 1})", WRONG_OUTPUT),
    ]
    before = len(os.listdir("/proc/self/fd"))
    for program, verdict in programs * 10:
        assert executor.execute(program, make_suite(("", "a"))).verdicts == (verdict,)
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize(
    ("program", "verdict"),
    [
        ("import errno\nraise OSError(errno.ENOMEM, 'Cannot allocate memory')", MEMORY_EXCEEDED),
        ("import sys\nprint('MemoryError', file=sys.stderr)\nsys.exit(1)", EXCEPTION),
        (
            "import sys\nprint('OSError: [Errno 12] Cannot allocate memory', file=sys.stderr)\n"
            "sys.exit(1)",
            EXCEPTION,
        ),
    ],
    ids=["raised_enomem", "printed_memory_error", "printed_enomem"],
)
def test_only_an_uncaught_memory_failure_is_a_breach(program, verdict):
    caps = ResourceCaps(wall_seconds=10.0, memory_bytes=256 * 1024 * 1024)
    feedback = ProcessExecutor(caps=caps).execute(program, make_suite(("", "never")))
    assert feedback.verdicts == (verdict,)


@pytest.mark.parametrize(
    "caps",
    [
        {"memory_bytes": 2**63},  # setrlimit takes a signed 64-bit limit
        {"memory_bytes": 4e9},  # setrlimit takes no float
        {"wall_seconds": 2147483.648},  # selectors wait at most 2**31 - 1 ms
        {"wall_seconds": 3e6},
        {"wall_seconds": float("nan")},
        {"memory_bytes": 0},
        {"memory_bytes": True},  # a bool is no integer to the record codec
        {"wall_seconds": "10"},
    ],
    ids=[
        "memory_past_rlimit",
        "memory_float",
        "wall_past_selectors",
        "wall_far_past_selectors",
        "wall_nan",
        "memory_zero",
        "memory_bool",
        "wall_text",
    ],
)
def test_caps_the_sandbox_cannot_apply_are_refused(caps):
    with pytest.raises(ValueError, match=next(iter(caps))):
        ResourceCaps(**caps)


def test_the_largest_caps_still_guard_the_network():
    caps = ResourceCaps(wall_seconds=(2**31 - 1) / 1000, memory_bytes=2**63 - 1)
    program = 'import socket\ntry:\n    socket.getaddrinfo("localhost", 80)\nexcept OSError as exc:\n    print(exc)\n'
    feedback = ProcessExecutor(caps=caps).execute(program, make_suite(("", _GUARDED)))
    assert feedback.verdicts == (PASS,), feedback.failures


def test_missing_interpreter_is_sandbox_setup_error(monkeypatch):
    monkeypatch.setattr(sys, "executable", "/no/such/interpreter")
    with pytest.raises(SandboxSetupError):
        ProcessExecutor().execute("print(1)", make_suite(("", "1")))


def test_unusable_temporary_directory_is_sandbox_setup_error(monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    with pytest.raises(SandboxSetupError):
        ProcessExecutor().execute("print(1)", make_suite(("", "1")))


def test_environment_descriptions_are_pinned():
    # run logs embed these texts, so old logs replay only while they stay the same
    caps = ResourceCaps(wall_seconds=2.5, memory_bytes=1000)
    assert ProcessExecutor(caps=caps).environment_description() == (
        f"runtime: python via {Path(sys.executable).name}; entry: the program reads stdin "
        "and writes stdout; caps per test: 2.5s wall clock, 1000 bytes memory, 4194304 bytes "
        "each of stdout and stderr; network disabled; fresh temporary working directory per test"
    )
    assert InProcessExecutor().environment_description() == (
        "runtime: python (in-process); entry: the program reads stdin and writes stdout; "
        "no resource caps; trusted fixtures only"
    )


def test_each_test_gets_a_fresh_workspace():
    # a file written by test 1 must not be visible to test 2
    program = """\
import os
if os.path.exists("marker"):
    print("saw marker")
else:
    open("marker", "w").write("x")
    print("fresh")
"""
    suite = make_suite(("", "fresh"), ("", "fresh"))
    feedback = ProcessExecutor().execute(program, suite)
    assert feedback.verdicts == (PASS, PASS)


def test_the_workspace_lists_only_the_program_files():
    # the input is a file with no name, so the candidate cannot find it by listing
    program = 'import os\nprint(*sorted(os.listdir(".")))'
    feedback = ProcessExecutor().execute(program, make_suite(("some input", "candidate.py sitecustomize.py")))
    assert feedback.verdicts == (PASS,), feedback.failures


@pytest.mark.parametrize(
    "program, expected",
    [("print('ok')", "ok"), ("import sys\nprint(len(sys.stdin.read()))", str(2**20))],
    ids=["never_read", "read_whole"],
)
def test_a_one_mebibyte_input_passes_whether_or_not_it_is_read(program, expected):
    feedback = ProcessExecutor().execute(program, make_suite(("x" * 2**20, expected)))
    assert feedback.verdicts == (PASS,), feedback.failures


@pytest.mark.parametrize(
    "program, verdict",
    [
        (ECHO, PASS),
        ("raise ValueError('boom')", EXCEPTION),
        ("while True:\n    pass", TIMEOUT),
        ("import sys\nwhile True:\n    sys.stdout.write('x' * 10**6)", WRONG_OUTPUT),
    ],
    ids=["pass", "exception", "timeout", "output_cap"],
)
def test_no_workspace_is_left_after_a_test(monkeypatch, tmp_path, program, verdict):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    feedback = ProcessExecutor(caps=ResourceCaps(wall_seconds=0.5)).execute(program, make_suite(("a", "a")))
    assert feedback.verdicts == (verdict,)
    assert list(tmp_path.iterdir()) == []


def test_a_kernel_without_process_file_descriptors_is_a_setup_error(monkeypatch, tmp_path):
    def no_pidfd(pid):
        raise OSError(38, "Function not implemented")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(os, "pidfd_open", no_pidfd)
    with pytest.raises(SandboxSetupError, match="cannot wait for the test's process"):
        ProcessExecutor().execute("print(1)", make_suite(("", "1")))
    assert list(tmp_path.iterdir()) == []


def test_an_input_that_cannot_be_written_is_a_workspace_failure(monkeypatch, tmp_path):
    def no_space(**kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "TemporaryFile", no_space)
    with pytest.raises(SandboxSetupError, match="cannot prepare workspace"):
        ProcessExecutor().execute("print(1)", make_suite(("", "1")))
    assert list(tmp_path.iterdir()) == []


_GUARDED = "network access is disabled in this sandbox"


@pytest.mark.parametrize(
    "body, expected",
    [
        ('socket.create_connection(("127.0.0.1", 9))\nprint("connected")', _GUARDED),
        (
            'udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\nudp.sendto(b"x", ("127.0.0.1", 9))\n'
            'print("sent")',
            _GUARDED,
        ),
        ('import _socket\n_socket.socket().connect(("127.0.0.1", 9))\nprint("connected")', _GUARDED),
        ('print(socket.gethostbyname("localhost"))', _GUARDED),
        ('import _socket\nprint(_socket.getaddrinfo("127.0.0.1", 9, 0, 0, 0, _socket.AI_NUMERICHOST))', _GUARDED),
        ('print(socket.gethostbyaddr("127.0.0.1"))', _GUARDED),
        ('print(socket.getnameinfo(("127.0.0.1", 9), socket.NI_NUMERICHOST | socket.NI_NUMERICSERV))', _GUARDED),
        (
            'udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)\nudp.sendmsg([b"x"], [], 0, ("127.0.0.1", 9))\n'
            'print("sent")',
            _GUARDED,
        ),
        ('server = socket.socket()\nserver.bind(("127.0.0.1", 0))\nserver.listen()\nprint("listening")', _GUARDED),
        # local sockets with no address stay open to the candidate, and asyncio needs them
        (
            'import asyncio\na, b = socket.socketpair()\na.sendmsg([b"ping"])\nprint(b.recv(4).decode())\n'
            "asyncio.run(asyncio.sleep(0))",
            "ping",
        ),
    ],
    ids=[
        "create_connection",
        "udp_sendto",
        "raw_socket_connect",
        "gethostbyname",
        "raw_getaddrinfo",
        "gethostbyaddr",
        "getnameinfo",
        "udp_sendmsg",
        "bind",
        "socketpair_asyncio",
    ],
)
def test_network_is_disabled_in_sandbox(body, expected):
    # port 9 refuses connections with an OSError of its own: match the guard's message
    program = "import socket\ntry:\n" + textwrap.indent(body, "    ") + "\nexcept OSError as exc:\n    print(exc)\n"
    feedback = ProcessExecutor().execute(program, make_suite(("", expected)))
    assert feedback.verdicts == (PASS,), feedback.failures


def test_traceback_through_the_network_guard_is_the_same_on_every_run():
    # the guard's frame is in the workspace's sitecustomize; the workspace path is random
    program = 'import socket\nsocket.create_connection(("127.0.0.1", 9))'
    suite = make_suite(("", ""))
    first = ProcessExecutor().execute(program, suite)
    second = ProcessExecutor().execute(program, suite)
    assert first.verdicts == (EXCEPTION,)
    # recorded sandbox run logs hold this frame; they replay only while it stays put
    assert 'File "sitecustomize.py", line 10, in _blocked' in "\n".join(
        first.failures[0].detail_lines
    )
    assert first.failures == second.failures


def test_the_sandbox_imports_socket_only_for_the_candidate():
    program = 'import sys\nprint("socket" in sys.modules)'
    feedback = ProcessExecutor().execute(program, make_suite(("", "False")))
    assert feedback.verdicts == (PASS,)


def test_network_guard_reaches_sockets_opened_by_the_standard_library():
    program = """\
import urllib.request
try:
    urllib.request.urlopen("http://127.0.0.1:9", timeout=5)
except OSError as exc:
    print(exc)
"""
    expected = "<urlopen error network access is disabled in this sandbox>"
    feedback = ProcessExecutor().execute(program, make_suite(("", expected)))
    assert feedback.verdicts == (PASS,)


def test_network_guard_covers_a_socket_module_imported_before_the_setup(tmp_path):
    shutil.copy(_child.__file__, tmp_path / "sitecustomize.py")
    program = (
        "import socket\n"
        + "import sitecustomize\n"
        + "try:\n"
        + '    socket.create_connection(("127.0.0.1", 9))\n'
        + "except OSError as exc:\n"
        + "    print(exc)\n"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", program],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={_child.CAPS_VARIABLE: f"{2**31} 10 {_OUTPUT_CAP + 1}"},
        timeout=30,
    )
    assert child.stdout == "network access is disabled in this sandbox\n", child.stderr


@pytest.mark.parametrize(
    "program, expected",
    [
        ("import os, signal\nos.kill(os.getppid(), signal.SIGKILL)", EXCEPTION),
        ("import os, signal\nos.killpg(os.getpgid(os.getppid()), signal.SIGKILL)", EXCEPTION),
        ("import os\nos.kill(-1, 0)", EXCEPTION),  # signal 0 only checks: nothing is sent
        (
            "import subprocess\nchild = subprocess.Popen(['sleep', '30'])\nchild.kill()\n"
            "print(child.wait())",
            PASS,
        ),
    ],
    ids=["kill_the_harness", "killpg_the_harness_group", "kill_every_process", "kill_its_own_child"],
)
def test_a_candidate_signals_only_its_own_process_group(program, expected):
    # the harness runs in a session of its own, so a signal the guard lets through
    # ends the harness, not the test run
    harness = textwrap.dedent(
        f"""\
        from arcs.executor import ProcessExecutor, TestCase, TestSuite

        feedback = ProcessExecutor().execute({program!r}, TestSuite((TestCase(1, "", "-9"),)))
        print(feedback.verdicts[0])
        print("\\n".join(feedback.failures[0].detail_lines) if feedback.failures else "")
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", harness],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        start_new_session=True,
    )
    assert child.returncode == 0, (child.returncode, child.stderr)
    verdict, _, detail = child.stdout.partition("\n")
    assert verdict == expected, detail
    if expected == EXCEPTION:
        assert "signals to other process groups are disabled in this sandbox" in detail


def test_deterministic_verdicts_across_runs(executor):
    suite = make_suite(("1 2", "3"), ("4 4", "8"))
    first = executor.execute(SUM, suite)
    second = executor.execute(SUM, suite)
    assert first.verdicts == second.verdicts
    assert first.pass_count == second.pass_count


def test_verdicts_reported_in_test_id_order(executor):
    suite = Suite(
        cases=(SuiteCase(5, "1 2", "3"), SuiteCase(1, "2 2", "5"), SuiteCase(3, "3 3", "6"))
    )
    feedback = executor.execute(SUM, suite)
    assert feedback.test_ids == (1, 3, 5)
    assert feedback.verdicts == (WRONG_OUTPUT, PASS, PASS)


def test_normalize_and_first_difference():
    assert normalize_output("a  \nb\n\n") == "a\nb"
    assert normalize_output(" a \r\nb\n\n", "exact") == " a \r\nb\n\n"
    assert normalize_output(" \na\n", "trim") == "a"
    assert first_difference("a\nb", "a\nc") == "line 2: expected 'b' got 'c'"
    assert first_difference("a", "a\nb") == "expected 1 line(s), got 2"


def _normalize_by_pops(text: str) -> str:
    """The trim mode as first written: strip each line's end, then pop blank lines off both ends."""
    lines = [line.rstrip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)


# letters, blanks that break no line, and every line break of str.splitlines, CRLF included
_TEXTS = st.lists(
    st.sampled_from(["a", "Z", " ", "\t", "\xa0", "\x1f", "\u3000", "\r\n", *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"]),
    max_size=30,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(_TEXTS)
def test_the_judges_text_helpers_keep_their_line_by_line_definitions(text):
    assert normalize_output(text) == _normalize_by_pops(text)
    named = [line.strip() for line in text.splitlines() if line.strip()]
    assert _last_line(text) == (named[-1] if named else "")


def test_leading_blank_lines_are_dropped_in_linear_time():
    started = time.perf_counter()
    assert normalize_output("\n" * 400_000 + "x") == "x"
    assert time.perf_counter() - started < 2.0


def test_an_output_of_blank_lines_up_to_the_cap_is_judged_in_linear_time():
    program = f"import sys\nsys.stdout.write('\\n' * {_OUTPUT_CAP - 1} + 'x')"
    started = time.perf_counter()
    feedback = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0)).execute(program, make_suite(("", "x")))
    assert feedback.verdicts == (PASS,)
    assert time.perf_counter() - started < 5.0


def test_exit_code_nonzero_is_exception(executor):
    program = "import sys\nsys.exit(3)"
    feedback = executor.execute(program, make_suite(("", "")))
    assert feedback.verdicts == (EXCEPTION,)


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie counts as gone (its reaper may be slow)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_no_candidate_process_outlives_its_test(tmp_path):
    pid_file = tmp_path / "child.pid"
    program = """\
import subprocess, sys
child = subprocess.Popen(
    ["sleep", "20"],
    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
)
with open(sys.stdin.read().strip(), "w") as handle:
    handle.write(str(child.pid))
print("started")
"""
    feedback = ProcessExecutor().execute(program, make_suite((str(pid_file), "started")))
    returned = time.monotonic()
    pid = int(pid_file.read_text(encoding="utf-8"))
    try:
        assert feedback.verdicts == (PASS,)
        while _alive(pid) and time.monotonic() - returned < 2.0:
            time.sleep(0.05)
        assert not _alive(pid)
    finally:
        with suppress(OSError):  # the child is gone
            if Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")[:2] == [b"sleep", b"20"]:
                os.kill(pid, signal.SIGKILL)


# more stderr lines than a failure keeps, then an uncaught exception
LONG_STDERR_THEN_RAISE = (
    "import sys\n"
    "for i in range(300):\n"
    "    print('debug step', i, file=sys.stderr)\n"
    "raise ValueError('boom')"
)

PARITY_PROGRAMS = {
    "echo": ECHO,
    "off_by_one": OFF_BY_ONE_ON_22,
    "raiser": RAISER,
    "exit_3": "import sys\nsys.exit(3)",
    "exit_message": "import sys\nsys.exit('no input')",
    "exit_negative": "import sys\nsys.exit(-1)",
    "wrong_with_stderr": "import sys\nprint('thinking', file=sys.stderr)\nprint(0)",
    "stdin_buffer": (
        "import sys\n"
        "total = sum(map(int, sys.stdin.buffer.read().split()))\n"
        "sys.stdout.buffer.write(str(total).encode())"
    ),
    "stderr_buffer": 'import sys\nsys.stderr.buffer.write(b"x")\nprint(3)',
    "long_stderr_then_raise": LONG_STDERR_THEN_RAISE,
    "leading_blank_lines": "import sys\nsys.stdout.write('\\n' * 100_000)\nprint(eval(input().replace(' ', '*')))",
}


@pytest.mark.parametrize("program", PARITY_PROGRAMS.values(), ids=PARITY_PROGRAMS.keys())
def test_backends_reach_the_same_judgement(program):
    # kind, summary and stderr lines alike: one judge sees the same run
    suite = make_suite(("1 2", "3"), ("2 2", "4"), ("5", "5"))
    process = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0)).execute(program, suite)
    in_process = InProcessExecutor().execute(program, suite)
    assert process.verdicts == in_process.verdicts
    assert process.failures == in_process.failures


@pytest.mark.parametrize("backend", ["process", "in_process"])
def test_a_long_stderr_is_summarised_by_its_last_line(backend):
    executor = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0)) if backend == "process" else InProcessExecutor()
    feedback = executor.execute(LONG_STDERR_THEN_RAISE, make_suite(("", "x")))
    (failure,) = feedback.failures
    assert (failure.kind, failure.summary) == ("ValueError", "ValueError: boom")
    assert failure.detail_lines == tuple(f"debug step {i}" for i in range(_STDERR_KEEP_LINES))


EXACT_PARITY_PROGRAMS = {
    "lf": ('import sys\nsys.stdout.buffer.write(b"a\\nb\\n")', PASS),
    "crlf": ('import sys\nsys.stdout.buffer.write(b"a\\r\\nb\\r\\n")', WRONG_OUTPUT),
    "lone_cr": ('import sys\nsys.stdout.buffer.write(b"a\\rb\\n")', WRONG_OUTPUT),
}


@pytest.mark.parametrize(
    "program, verdict", EXACT_PARITY_PROGRAMS.values(), ids=EXACT_PARITY_PROGRAMS.keys()
)
def test_backends_reach_the_same_judgement_on_exact_output(program, verdict):
    # `exact` compares the bytes the program wrote: no newline translation
    suite = make_suite(("", "a\nb\n"), compare="exact")
    process = ProcessExecutor(caps=ResourceCaps(wall_seconds=10.0)).execute(program, suite)
    in_process = InProcessExecutor().execute(program, suite)
    assert process.verdicts == in_process.verdicts == (verdict,)
    assert process.failures == in_process.failures


def test_in_process_tests_run_one_at_a_time(monkeypatch):
    # the first candidate waits up to 0.5 s for the second to start, and the second for the
    # first to print: run at once, the first would print into the second's redirected stdout
    meeting = types.SimpleNamespace(
        first_inside=threading.Event(), second_inside=threading.Event(), first_printed=threading.Event()
    )
    monkeypatch.setitem(sys.modules, "arcs_meeting", meeting)
    first = (
        "import arcs_meeting\n"
        "arcs_meeting.first_inside.set()\n"
        "arcs_meeting.second_inside.wait(0.5)\n"
        "print('first')\n"
        "arcs_meeting.first_printed.set()"
    )
    second = (
        "import arcs_meeting\n"
        "arcs_meeting.second_inside.set()\n"
        "arcs_meeting.first_printed.wait(0.5)\n"
        "print('second')"
    )
    original_stdout = sys.stdout
    monkeypatch.setattr(sys, "stdout", original_stdout)  # put back should the test fail
    feedback = {}

    def execute(name, program):
        feedback[name] = InProcessExecutor().execute(program, make_suite(("", name)))

    threads = [threading.Thread(target=execute, args=("first", first))]
    threads[0].start()
    assert meeting.first_inside.wait(5.0)
    threads.append(threading.Thread(target=execute, args=("second", second)))
    threads[1].start()
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()
    assert sys.stdout is original_stdout
    assert feedback["first"].verdicts == feedback["second"].verdicts == (PASS,)


def test_suite_file_round_trip(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(
        '{"compare": "trim", "cases": [{"id": 1, "input": "x", "expected": "y"}]}',
        encoding="utf-8",
    )
    suite = load_suite(path)
    assert suite.m == 1
    assert suite.cases[0] == SuiteCase(1, "x", "y")
    bare = tmp_path / "bare.json"
    bare.write_text('[{"id": 2, "input": "", "expected": "z"}]', encoding="utf-8")
    assert load_suite(bare).cases[0].id == 2


def test_suite_requires_cases_and_unique_ids():
    with pytest.raises(ValueError):
        Suite(cases=())
    with pytest.raises(ValueError):
        Suite(cases=(SuiteCase(1, "", ""), SuiteCase(1, "", "")))


def test_encode_feedback_all_pass_is_vector_only(executor):
    feedback = executor.execute(ECHO, make_suite(("a\n", "a")))
    segment = encode_feedback(feedback)
    assert segment.kind == "fb"
    assert segment.text == "tests: 1:pass (1/1 passed)"


def test_encode_feedback_timeout_block_has_no_stack():
    feedback = ProcessExecutor(caps=ResourceCaps(wall_seconds=1.0)).execute(
        "while True:\n    pass", make_suite(("spin", "never"))
    )
    text = encode_feedback(feedback).text
    assert "[test 1] timeout" in text
    assert 'input: "spin"' in text
    assert "stack:" not in text


def test_encode_feedback_truncates_stack_to_head(executor):
    feedback = executor.execute(RAISER, make_suite(("", "never")))
    segment = encode_feedback(feedback, max_stack_lines=10)
    stack_lines = [line for line in segment.text.splitlines() if line.startswith("  ")]
    assert len(stack_lines) == 10
    full = feedback.failures[0].detail_lines
    assert [line.strip() for line in stack_lines] == [line.strip() for line in full[:10]]


def test_encode_feedback_without_stack_lines_writes_no_stack_header(executor):
    feedback = executor.execute(RAISER, make_suite(("", "never")))
    text = encode_feedback(feedback, max_stack_lines=0).text
    assert feedback.failures[0].detail_lines
    assert text.endswith(f"summary: {feedback.failures[0].summary}")
    assert "stack:" not in text


def test_encode_feedback_names_failing_input(executor):
    feedback = executor.execute(OFF_BY_ONE_ON_22, make_suite(("1 2", "3"), ("2 2", "4")))
    text = encode_feedback(feedback).text
    assert "[test 2] wrong output" in text
    assert 'input: "2 2"' in text
    assert "summary: line 1: expected '4' got '5'" in text
    assert "[test 1]" not in text


def test_encode_feedback_quotes_at_most_the_bound_of_each_field():
    words = "word " * 3000
    whole = "x" * FEEDBACK_QUOTE_CHARS
    detail = FailureDetail(7, words, "A" * 100_000, words, (words, whole))
    feedback = ExecutionFeedback((7,), (EXCEPTION,), 0, (detail,), (0.0,))
    kept = words[:FEEDBACK_QUOTE_CHARS]
    cut = f" [{len(words) - FEEDBACK_QUOTE_CHARS} more characters cut]"
    assert encode_feedback(feedback).text.splitlines() == [
        "tests: 7:exception (0/1 passed)",
        f"[test 7] {'A' * FEEDBACK_QUOTE_CHARS} [{100_000 - FEEDBACK_QUOTE_CHARS} more characters cut]",
        f"input: {json.dumps(kept)}{cut}",
        f"summary: {kept}{cut}",
        "stack:",
        f"  {kept}{cut}",
        f"  {whole}",
    ]
