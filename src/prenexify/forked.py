"""A task run in a forked child process while the caller goes on.

``Forked(task)`` forks; the child runs ``task()``, pickles
``("ok", value)`` or ``("error", exception)`` into a pipe and ends with
``os._exit``, so it never returns into the caller and never flushes the
stdio buffers it copied.  ``result()`` reads the pipe to its end, reaps
the child and returns the value or raises the exception.  An abnormal
exit, or an end of the pipe with no result, is a ``RuntimeError`` naming
the exit status; an exception that pickle cannot rebuild arrives as a
``RuntimeError`` naming its type and message.  ``kill()`` ends and reaps
a child whose result is no longer wanted.

The selftest imports this module only when it runs, so commands that
never fork do not compile it.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
from typing import Callable

__all__ = ["Forked"]


class Forked:
    def __init__(self, task: Callable[[], object]):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            # the child's collections skip the objects it inherited, so
            # they neither walk them nor write to their pages
            gc.freeze()
            os.close(read_fd)
            _child_main(task, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def result(self) -> object:
        try:
            data = self.pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        except BaseException:
            self.kill()
            raise
        self.pipe.close()
        if status < 0:
            raise RuntimeError(f"forked child killed by signal {-status}")
        if status != 0 or not data:
            raise RuntimeError(f"forked child exited with status {status} and no result")
        kind, value = pickle.loads(data)
        if kind == "error":
            raise value
        return value

    def kill(self) -> None:
        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _child_main(task: Callable[[], object], write_fd: int) -> None:
    """The child's whole life: run ``task``, send its outcome, exit."""
    status = 1
    try:
        try:
            payload = pickle.dumps(("ok", task()))
        except BaseException as exc:  # noqa: BLE001 - sent to the parent
            import traceback

            if hasattr(exc, "add_note"):  # Python 3.11 and later
                exc.add_note("in the forked child:\n" + traceback.format_exc().rstrip())
            try:
                payload = pickle.dumps(("error", exc))
                pickle.loads(payload)
            except Exception:  # noqa: BLE001 - e.g. an __init__ with more arguments than args
                substitute = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps(("error", substitute))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
