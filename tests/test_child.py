"""The sandbox child's rules, called in-process with made-up events and hooks."""

from __future__ import annotations

import ast
import errno
import importlib.util
import os
import signal
import sys
import traceback
from pathlib import Path

import pytest

from arcs import _child
from arcs.executor import PASS, ProcessExecutor

from helpers import make_suite

_GUARDED = "network access is disabled in this sandbox"
_ADDRESS = ("127.0.0.1", 9)


@pytest.mark.parametrize(
    "event, args",
    [
        ("socket.connect", (None, _ADDRESS)),
        ("socket.bind", (None, _ADDRESS)),
        ("socket.sendto", (None, _ADDRESS)),
        ("socket.sendmsg", (None, _ADDRESS)),
        ("socket.getaddrinfo", ("localhost", 9, 0, 0, 0)),
        ("socket.gethostbyname", ("localhost",)),
        ("socket.gethostbyaddr", ("127.0.0.1",)),
        ("socket.getnameinfo", (_ADDRESS, 0)),
    ],
)
def test_each_network_event_is_refused(event, args):
    with pytest.raises(OSError, match=_GUARDED):
        _child._blocked(event, args)


@pytest.mark.parametrize(
    "event, args", [("socket.sendmsg", (None, None)), ("socket.__new__", (None, 2, 1, 0))]
)
def test_a_socket_with_no_address_is_allowed(event, args):
    assert _child._blocked(event, args) is None


_OWN_GROUP = 500


def _group_of(pid):
    """Stands in for ``os.getpgid``: pid 7 lies in the caller's group, pid 8 in group 900."""
    groups = {7: _OWN_GROUP, 8: 900}
    if pid not in groups:
        raise ProcessLookupError(errno.ESRCH, "No such process")
    return groups[pid]


@pytest.mark.parametrize(
    "event, args, allowed",
    [
        ("os.kill", (7, signal.SIGKILL), True),
        ("os.kill", (0, signal.SIGKILL), True),
        ("os.kill", (-_OWN_GROUP, signal.SIGKILL), True),
        ("os.killpg", (_OWN_GROUP, signal.SIGKILL), True),
        ("os.killpg", (0, signal.SIGKILL), True),
        ("os.kill", (8, signal.SIGKILL), False),
        ("os.kill", (-900, signal.SIGKILL), False),
        ("os.killpg", (900, signal.SIGKILL), False),
        ("os.kill", (-1, 0), False),
        ("os.kill", (12345, signal.SIGKILL), True),  # no such process: the call fails on its own
    ],
    ids=[
        "own_process",
        "own_group_as_zero",
        "own_group_by_kill",
        "own_group_by_killpg",
        "killpg_zero",
        "other_group_process",
        "other_group_by_kill",
        "other_group_by_killpg",
        "every_process",
        "missing_process",
    ],
)
def test_a_signal_is_allowed_only_inside_the_callers_group(event, args, allowed):
    def call():
        return _child._blocked(event, args, _getpgid=_group_of, _own=_OWN_GROUP)

    if allowed:
        assert call() is None
    else:
        with pytest.raises(PermissionError, match="signals to other process groups are disabled"):
            call()


@pytest.mark.parametrize(
    "error, marked",
    [
        (MemoryError(), True),
        (OSError(errno.ENOMEM, "Cannot allocate memory"), True),
        (OSError(errno.ENOENT, "No such file"), False),
        (ValueError("boom"), False),
    ],
    ids=["memory_error", "os_error_enomem", "os_error_enoent", "value_error"],
)
def test_a_memory_failure_leaves_the_marker_and_calls_the_previous_hook(tmp_path, error, marked):
    calls = []
    _child._report_memory(
        type(error), error, None, _previous=lambda *args: calls.append(args), _directory=str(tmp_path)
    )
    assert calls == [(type(error), error, None)]
    assert (tmp_path / _child.MEMORY_MARKER).exists() == marked
    assert len(list(tmp_path.iterdir())) == marked


def test_importing_the_module_sets_nothing(monkeypatch):
    hook = sys.excepthook
    monkeypatch.setenv(_child.CAPS_VARIABLE, "1 1")  # would be popped if the setup ran
    spec = importlib.util.spec_from_file_location("arcs_child_copy", _child.__file__)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert sys.excepthook is hook
    assert os.environ[_child.CAPS_VARIABLE] == "1 1"


def test_the_module_imports_only_the_standard_library():
    tree = ast.parse(Path(_child.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    # the child must not import arcs, whose package imports numpy; "." is a relative import
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names


def test_the_network_raise_stays_on_line_10():
    # recorded sandbox run logs hold `File "sitecustomize.py", line 10, in _blocked`
    with pytest.raises(OSError) as caught:
        _child._blocked("socket.connect", (None, _ADDRESS))
    frame = traceback.extract_tb(caught.value.__traceback__)[-1]
    assert (frame.name, frame.lineno) == ("_blocked", 10)
    assert frame.line == f'raise OSError("{_GUARDED}")'


def test_the_candidate_sees_only_the_sandbox_environment():
    # the caps variable is removed before the candidate runs, and never reaches it
    program = "import os\nprint(*sorted(os.environ))"
    expected = (
        "HOME LANG LC_ALL PATH PYTHONDONTWRITEBYTECODE PYTHONHASHSEED PYTHONIOENCODING "
        "PYTHONPATH TMPDIR"
    )
    feedback = ProcessExecutor().execute(program, make_suite(("", expected)))
    assert feedback.verdicts == (PASS,), feedback.failures
