"""The sandbox child's setup. Each workspace holds this file as its sitecustomize.py, which the
child runs before the candidate; the parent and tests import it as a module, which sets nothing.
Recorded tracebacks name the network raise in ``_blocked`` on line 10: keep it there."""
import errno, os, resource, sys


# the audit hook: refuses each socket call that takes an address or looks up a name, and each signal outside the group _own
def _blocked(event, args, _getpgid=os.getpgid, _own=os.getpgrp()):
    if event in ("socket.connect", "socket.bind", "socket.sendto", "socket.getaddrinfo", "socket.gethostbyname", "socket.gethostbyaddr", "socket.getnameinfo") or event == "socket.sendmsg" and args[1] is not None:
        raise OSError("network access is disabled in this sandbox")
    if event == "os.kill" and args[0] > 0:
        try:
            target = _getpgid(args[0])
        except OSError:
            return  # no such process: the call fails on its own
    elif event in ("os.kill", "os.killpg"):
        # 0 is the caller's group; kill's -1, every process, maps to group 1
        target = abs(args[0]) or _own
    else:
        return
    if target != _own:
        raise PermissionError("signals to other process groups are disabled in this sandbox")


MEMORY_MARKER = ".memory-exceeded"  # left in the workspace by a child that dies of a memory failure
CAPS_VARIABLE = "ARCS_CHILD_CAPS"  # "<memory bytes> <CPU seconds> <file-size bytes>", from the parent to the child


def _report_memory(kind, value, frames, _previous=sys.excepthook, _directory=os.path.dirname(__file__)):
    """The excepthook: leaves ``MEMORY_MARKER`` in ``_directory`` for an uncaught memory failure."""
    if issubclass(kind, MemoryError) or isinstance(value, OSError) and value.errno == errno.ENOMEM:
        open(os.path.join(_directory, MEMORY_MARKER), "w").close()
    _previous(kind, value, frames)


# the guards go in before the caps are read, so no cap value leaves a candidate unguarded;
# the child removes the caps variable, so the candidate never sees it
if __name__ == "sitecustomize":
    sys.addaudithook(_blocked)
    sys.excepthook = _report_memory
    _memory, _cpu, _file_size = map(int, os.environ.pop(CAPS_VARIABLE).split())
    for _limit, _cap in ((resource.RLIMIT_AS, (_memory, _memory)), (resource.RLIMIT_CPU, (_cpu, _cpu + 1)), (resource.RLIMIT_FSIZE, (_file_size, _file_size))):
        try:
            resource.setrlimit(_limit, _cap)
        except (ValueError, OSError):
            pass
