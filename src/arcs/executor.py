"""Sandboxed candidate execution against a test suite, plus feedback encoding.

The default backend runs each test in a fresh OS process inside a throwaway
temp workspace with resource limits and a best-effort network guard. A fast
in-process backend exists for trusted fixtures where spawning a process per
test would dominate (property tests, large sweeps); it provides no
isolation, caps or timeout. Each backend only runs a test; one judge turns
the exit status, stdout and stderr of either into the verdict.
"""

from __future__ import annotations

import io
import itertools
import json
import linecache
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import traceback
from abc import ABC, abstractmethod
from contextlib import ExitStack, redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path

from . import _child
from .config import DEFAULTS
from .errors import ConfigError, SandboxSetupError
from .prompting import PromptSegment
from .util import TIMING, JsonRecord, check_field_types

PASS = "pass"
WRONG_OUTPUT = "wrong_output"
EXCEPTION = "exception"
TIMEOUT = "timeout"
MEMORY_EXCEEDED = "memory_exceeded"
VERDICTS = (PASS, WRONG_OUTPUT, EXCEPTION, TIMEOUT, MEMORY_EXCEEDED)

_STDERR_KEEP_LINES = 200
# the line breaks of str.splitlines, each also whitespace to str.strip; a CRLF pair is one break
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(f"\r\n|[{_LINE_BREAKS}]")
# bytes the process backend keeps of each of a test's stdout and stderr; the child's file-size
# cap is one byte more, and a test whose output reaches that byte is judged wrong output
_OUTPUT_CAP = 4 * 1024 * 1024
# characters of each failing test's input, kind, summary and stack line that feedback quotes:
# a candidate or a suite can make each as long as it likes, and feedback is never truncated
FEEDBACK_QUOTE_CHARS = 300
# the process backend's program file; in-process candidates compile under its name
_CANDIDATE_FILE = "candidate.py"

# the interpreter's library directories, longest first since site-packages lies inside the
# standard library: stderr names library files relative to them, wherever Python is installed
_LIBRARY_DIRS = sorted(
    {sysconfig.get_path(name) + os.sep for name in ("stdlib", "platstdlib", "purelib", "platlib")},
    key=len, reverse=True,
)

@dataclass(frozen=True)
class TestCase:
    id: int
    input: str
    expected: str


@dataclass(frozen=True)
class TestSuite(JsonRecord):
    """Ordered test cases plus the output comparison mode."""

    cases: tuple[TestCase, ...]
    compare: str = "trim"

    json_bare_list = "cases"

    def __post_init__(self):
        if len(self.cases) < 1:
            raise ValueError("a test suite requires at least one case")
        if self.compare not in ("trim", "exact"):
            raise ValueError(f"unknown comparison mode {self.compare!r}")
        ids = [case.id for case in self.cases]
        if len(set(ids)) != len(ids):
            raise ValueError("test ids must be unique within a suite")

    @property
    def m(self) -> int:
        return len(self.cases)

    def ordered_cases(self) -> list[TestCase]:
        return sorted(self.cases, key=lambda case: case.id)


def load_suite(path: str | Path) -> TestSuite:
    """Suite file: {"compare": ..., "cases": [{id, input, expected}, ...]}, or a bare list of the cases."""
    try:
        return TestSuite.from_jsonable(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad suite file {path}: {exc}") from exc


# the largest caps the sandbox can apply: the child's setrlimit takes a signed 64-bit
# integer, and the parent's selector waits at most 2**31 - 1 ms
_MAX_MEMORY_BYTES = 2**63 - 1
_MAX_WALL_SECONDS = (2**31 - 1) / 1000


@dataclass(frozen=True)
class ResourceCaps:
    wall_seconds: float = DEFAULTS["wall_seconds"]
    memory_bytes: int = DEFAULTS["memory_bytes"]

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.wall_seconds <= _MAX_WALL_SECONDS:
            raise ValueError(f"wall_seconds must be in (0, {_MAX_WALL_SECONDS}], got {self.wall_seconds}")
        if not 0 < self.memory_bytes <= _MAX_MEMORY_BYTES:
            raise ValueError(f"memory_bytes must be an integer in [1, 2**63 - 1], got {self.memory_bytes}")


@dataclass(frozen=True)
class FailureDetail(JsonRecord):
    test_id: int
    input: str
    kind: str
    summary: str
    detail_lines: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExecutionFeedback(JsonRecord):
    """Per-test verdicts in test-id order plus observed failure details."""

    test_ids: tuple[int, ...]
    verdicts: tuple[str, ...]
    pass_count: int
    failures: tuple[FailureDetail, ...]
    wall_times: tuple[float, ...] = field(metadata=TIMING)

    @property
    def all_passed(self) -> bool:
        return self.pass_count == len(self.verdicts)


def normalize_output(text: str, mode: str = "trim") -> str:
    """Trailing-whitespace-trimmed line-by-line form used for comparison."""
    if mode == "exact":
        return text
    return "\n".join(line.rstrip() for line in text.splitlines()).strip("\n")


def first_difference(expected: str, actual: str) -> str:
    exp_lines = expected.splitlines()
    act_lines = actual.splitlines()
    for number, (exp, act) in enumerate(zip(exp_lines, act_lines), start=1):
        if exp != act:
            return f"line {number}: expected {exp!r} got {act!r}"
    if len(exp_lines) != len(act_lines):
        return f"expected {len(exp_lines)} line(s), got {len(act_lines)}"
    return "outputs differ"


class Executor(ABC):
    """Boundary for running one candidate program against a suite."""

    @abstractmethod
    def execute(self, program: str, suite: TestSuite) -> ExecutionFeedback:
        """Run every test and report verdicts in test-id order."""

    @abstractmethod
    def environment_description(self) -> str:
        """Deterministic text describing runtime, entry point, and caps."""


_TRACEBACK_KIND_RE = re.compile(r"^([A-Z][\w.]*)(?::\s|:$|$)")


def _last_line(text: str) -> str:
    """The last non-blank line of ``text``, stripped, or ""."""
    text = text.rstrip()
    return text[max(map(text.rfind, _LINE_BREAKS)) + 1 :].lstrip()


def _judge(
    case: TestCase,
    compare: str,
    returncode: int | None,
    stdout: str,
    stderr: str,
    limit: str | None,
    caps: ResourceCaps | None,
) -> tuple[str, FailureDetail | None]:
    """Verdict and failure detail of one test from what its run left behind.

    ``limit`` names the cap the run hit, if any: "wall" for the wall clock,
    "output" for the output cap, "memory" when the child reported an uncaught
    memory failure. ``caps`` is None for a backend without caps.
    """
    # only the kept lines are split: they end at the end of the last kept line break
    breaks = list(itertools.islice(_LINE_BREAK_RE.finditer(stderr), _STDERR_KEEP_LINES))
    kept = stderr[: breaks[-1].end()] if len(breaks) == _STDERR_KEEP_LINES else stderr
    last = _last_line(stderr)  # of all of stderr, kept or not: it names the error
    for directory in _LIBRARY_DIRS:
        kept, last = kept.replace(directory, ""), last.replace(directory, "")
    lines = tuple(kept.splitlines())
    if limit == "wall":
        verdict, kind, lines = TIMEOUT, "timeout", ()
        summary = f"no result within {caps.wall_seconds:g}s"
    elif limit == "output":
        verdict, kind = WRONG_OUTPUT, "wrong output"
        summary = f"output passed the cap of {_OUTPUT_CAP} bytes"
    elif returncode == 0:
        expected = normalize_output(case.expected, compare)
        actual = normalize_output(stdout, compare)
        if expected == actual:
            return PASS, None
        verdict, kind, summary = WRONG_OUTPUT, "wrong output", first_difference(expected, actual)
    elif limit == "memory":
        verdict, kind = MEMORY_EXCEEDED, "memory exceeded"
        summary = f"memory cap {caps.memory_bytes} bytes breached"
    else:
        match = _TRACEBACK_KIND_RE.match(last)
        kind = match.group(1) if match else "exception"
        if kind == "exception" and returncode < 0:
            kind = f"signal {-returncode}"
        verdict, summary = EXCEPTION, last or f"exit code {returncode}"
    return verdict, FailureDetail(case.id, case.input, kind, summary, lines)


def _run_suite(run_one, program: str, suite: TestSuite, caps: ResourceCaps | None):
    """Judge ``run_one(program, case)`` for every test, in test-id order."""
    cases = suite.ordered_cases()
    judged, wall_times = [], []
    for case in cases:
        returncode, stdout, stderr, limit, wall = run_one(program, case)
        judged.append(_judge(case, suite.compare, returncode, stdout, stderr, limit, caps))
        wall_times.append(wall)
    verdicts = tuple(verdict for verdict, _ in judged)
    return ExecutionFeedback(
        test_ids=tuple(case.id for case in cases),
        verdicts=verdicts,
        pass_count=verdicts.count(PASS),
        failures=tuple(detail for _, detail in judged if detail is not None),
        wall_times=tuple(wall_times),
    )


class ProcessExecutor(Executor):
    """Runs each test in a fresh OS process inside a temp workspace.

    Isolation is process-level: fresh working directory per test, a minimal
    environment, and the module ``arcs._child``, written into the workspace as
    its sitecustomize. Before the candidate runs, the child installs through it
    a Python-level network and signal guard, then sets its own address-space,
    CPU-time and file-size rlimits from one environment variable that it
    removes. Its stdin, stdout and stderr are unnamed files in the workspace.
    The parent only waits for the child to exit, then reads at most one byte
    past ``_OUTPUT_CAP`` of each output, where the file-size rlimit stops it.
    A container backend can replace this behind the same interface.
    """

    def __init__(self, caps: ResourceCaps | None = None):
        self.caps = caps or ResourceCaps()
        self._setup = Path(_child.__file__).read_bytes()

    def environment_description(self) -> str:
        return (
            f"runtime: python via {Path(sys.executable).name}; "
            "entry: the program reads stdin and writes stdout; "
            f"caps per test: {self.caps.wall_seconds:g}s wall clock, "
            f"{self.caps.memory_bytes} bytes memory, {_OUTPUT_CAP} bytes each of stdout and "
            "stderr; network disabled; fresh temporary working directory per test"
        )

    def execute(self, program: str, suite: TestSuite) -> ExecutionFeedback:
        return _run_suite(self._run_case, program, suite, self.caps)

    def _run_case(self, program: str, case: TestCase):
        with ExitStack() as stack:
            try:
                workdir = tempfile.mkdtemp(prefix="arcs-exec-")
            except OSError as exc:
                raise SandboxSetupError(f"cannot create a workspace: {exc}") from exc
            stack.callback(shutil.rmtree, workdir, ignore_errors=True)
            program_path = Path(workdir) / _CANDIDATE_FILE
            cpu = max(1, int(self.caps.wall_seconds) + 1)
            env = {
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                "HOME": workdir,
                "TMPDIR": workdir,
                "LANG": "C.UTF-8",
                "LC_ALL": "C.UTF-8",
                "PYTHONDONTWRITEBYTECODE": "1",
                "PYTHONIOENCODING": "utf-8",
                "PYTHONHASHSEED": "0",
                "PYTHONPATH": workdir,
                _child.CAPS_VARIABLE: f"{self.caps.memory_bytes} {cpu} {_OUTPUT_CAP + 1}",
            }
            started = time.perf_counter()
            try:
                program_path.write_text(program, encoding="utf-8")
                (Path(workdir) / "sitecustomize.py").write_bytes(self._setup)
                # the child's stdio is three files with no name: the workspace lists only the two
                # files above, and the parent neither writes nor reads while the child runs
                unnamed = (tempfile.TemporaryFile(dir=workdir) for _ in range(3))
                stdin, stdout, stderr = map(stack.enter_context, unnamed)
                stdin.write(case.input.encode("utf-8", "replace"))
                stdin.seek(0)
            except OSError as exc:
                raise SandboxSetupError(f"cannot prepare workspace: {exc}") from exc
            try:
                process = subprocess.Popen(
                    [sys.executable, str(program_path)],
                    stdin=stdin,
                    stdout=stdout,
                    stderr=stderr,
                    cwd=workdir,
                    env=env,
                    start_new_session=True,
                )
            except OSError as exc:
                raise SandboxSetupError(f"cannot start {sys.executable!r}: {exc}") from exc
            try:
                exited = _exits_by(process, started + self.caps.wall_seconds)
            finally:
                # one teardown for every exit: background children of the candidate must not
                # outlive its test
                with suppress(OSError):
                    os.killpg(process.pid, signal.SIGKILL)
                returncode = process.wait()
            wall = time.perf_counter() - started
            if not exited:
                return None, "", "", "wall", wall
            # the child's file-size cap ends each output at most one byte past the cap
            stdout, stderr = (os.pread(file.fileno(), _OUTPUT_CAP + 1, 0) for file in (stdout, stderr))
            limit = "memory" if (Path(workdir) / _child.MEMORY_MARKER).exists() else None
            if max(len(stdout), len(stderr)) > _OUTPUT_CAP:
                stdout, stderr, limit = b"", stderr[:_OUTPUT_CAP], "output"
            # decoded once, as written: `exact` must see a "\r\n" the program wrote;
            # the workspace path is random, and replay needs bare file names
            stderr = stderr.decode("utf-8", "replace").replace(workdir + os.sep, "")
            return returncode, stdout.decode("utf-8", "replace"), stderr, limit, wall


def _exits_by(process: subprocess.Popen, deadline: float) -> bool:
    """Whether ``process`` exits before the ``time.perf_counter`` ``deadline``; the parent sleeps
    on its process file descriptor, which turns readable when it exits (Linux 5.3 or later)."""
    try:
        pidfd = os.pidfd_open(process.pid)
    except (AttributeError, OSError) as exc:
        raise SandboxSetupError(f"cannot wait for the test's process: {exc}") from exc
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(pidfd, selectors.EVENT_READ)
            return bool(selector.select(max(deadline - time.perf_counter(), 0)))
    finally:
        os.close(pidfd)


_IN_PROCESS_LOCK = threading.RLock()  # reentrant, for a candidate that runs a suite in-process


class InProcessExecutor(Executor):
    """Executes trusted candidate programs in-process via exec().

    No isolation, no caps, no timeout: intended for fixture-driven property
    tests and sweeps where per-test process spawning would dominate the
    runtime. Each test still gets fresh globals and fresh stdio, and exits
    and uncaught exceptions end the run the way the interpreter would, so
    the shared judge sees what the process backend would show it. Tests run
    one at a time, across threads too, since each swaps the process's stdio.
    """

    def environment_description(self) -> str:
        return (
            "runtime: python (in-process); entry: the program reads stdin and "
            "writes stdout; no resource caps; trusted fixtures only"
        )

    def execute(self, program: str, suite: TestSuite) -> ExecutionFeedback:
        return _run_suite(self._run_case, program, suite, None)

    @staticmethod
    def _run_case(program: str, case: TestCase):
        # text streams over bytes, with the newline and encoding rules of a
        # POSIX interpreter's stdio, so the ``.buffer`` of each standard
        # stream exists as it does in the process sandbox
        stdout_bytes = io.BytesIO()
        stdout = io.TextIOWrapper(stdout_bytes, encoding="utf-8", newline="\n")
        stderr_bytes = io.BytesIO()
        stderr = io.TextIOWrapper(
            stderr_bytes,
            encoding="utf-8",
            errors="backslashreplace",
            newline="\n",
            write_through=True,
        )
        with _IN_PROCESS_LOCK:
            original_stdin = sys.stdin
            started = time.perf_counter()
            returncode = 0
            try:
                stdin_bytes = io.BytesIO(case.input.encode("utf-8", "replace"))
                sys.stdin = io.TextIOWrapper(stdin_bytes, encoding="utf-8", newline="\n")
                # source lines for tracebacks, shown as the process backend shows them
                lines = program.splitlines(True)
                linecache.cache[_CANDIDATE_FILE] = (len(program), None, lines, _CANDIDATE_FILE)
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    exec(compile(program, _CANDIDATE_FILE, "exec"), {"__name__": "__main__"})
            except SystemExit as exc:
                returncode = _exit_status(exc.code, stderr)
            except Exception as exc:
                # skip this frame: the traceback starts at the candidate's module
                frames = exc.__traceback__.tb_next
                traceback.print_exception(type(exc), exc, frames, file=stderr)
                returncode = 1
            finally:
                sys.stdin = original_stdin
                linecache.cache.pop(_CANDIDATE_FILE, None)
                stdout.flush()
                stderr.flush()
        wall = time.perf_counter() - started
        stdout_text = stdout_bytes.getvalue().decode("utf-8", "replace")
        stderr_text = stderr_bytes.getvalue().decode("utf-8", "replace")
        return returncode, stdout_text, stderr_text, None, wall


def _exit_status(code, stderr) -> int:
    """The status ``python`` exits with for ``sys.exit(code)``."""
    if code is None or isinstance(code, int):
        return (code or 0) & 0xFF
    print(code, file=stderr)
    return 1


def quote(text: str, render=str) -> str:
    """``render`` of ``text``'s first ``FEEDBACK_QUOTE_CHARS`` characters, marked with the count it cut."""
    dropped = len(text) - FEEDBACK_QUOTE_CHARS
    marker = f" [{dropped} more characters cut]" if dropped > 0 else ""
    return render(text[:FEEDBACK_QUOTE_CHARS]) + marker


def encode_feedback(
    feedback: ExecutionFeedback, max_stack_lines: int = DEFAULTS["max_stack_lines"]
) -> PromptSegment:
    """Serialize observed failures only into a feedback prompt segment.

    The verdict vector comes first; each failing test then contributes its
    kind, its input, a first-difference or error summary, and at most
    ``max_stack_lines`` stack/stderr lines (head of stack), each quoted to
    at most ``FEEDBACK_QUOTE_CHARS`` characters. Passing tests appear only
    in the vector. No speculative repair hints.
    """
    total = len(feedback.verdicts)
    vector = " ".join(
        f"{test_id}:{verdict}" for test_id, verdict in zip(feedback.test_ids, feedback.verdicts)
    )
    lines = [f"tests: {vector} ({feedback.pass_count}/{total} passed)"]
    for detail in feedback.failures:
        lines.append(f"[test {detail.test_id}] {quote(detail.kind)}")
        lines.append(f"input: {quote(detail.input, json.dumps)}")
        lines.append(f"summary: {quote(detail.summary)}")
        stack = detail.detail_lines[:max_stack_lines]
        if stack:
            lines.append("stack:")
            lines.extend(f"  {quote(line)}" for line in stack)
    return PromptSegment(kind="fb", text="\n".join(lines))
