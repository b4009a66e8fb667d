"""Tasks run by forked worker processes from a shared queue while the
caller goes on.

``run_tasks(tasks, workers, meanwhile)`` puts one byte per task into a
pipe, the queue, and closes its write end.  It forks ``workers``
children (``Forked``); each takes tasks from the queue, one byte with
one ``os.read`` at a time, until the pipe ends, and sends back the
values of the tasks it ran.  Meanwhile the caller runs ``meanwhile()``
and takes no task, so what it does does not depend on timing.  With no
workers, the caller takes every task from the same queue itself after
``meanwhile()``.  Either way the values come back in task order.

A child pickles ``("ok", value)`` or ``("error", exception)`` into a
pipe of its own and ends with ``os._exit``, so it never returns into
the caller and never flushes the stdio buffers it copied.  The caller
reads every child's pipe as it fills and reaps each child at the end of
its pipe.  The first failure it meets, in ``meanwhile()`` or in a child,
is raised once every child is killed and reaped: an abnormal exit, or
an end of the pipe with no result, is a ``RuntimeError`` naming the exit
status; an exception that pickle cannot rebuild arrives as a
``RuntimeError`` naming its type and message.

The selftest imports this module only when it runs, so commands that
never fork do not compile it.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
from typing import Callable, Optional

__all__ = ["run_tasks"]

# byte b names the tasks b, b + 256, ..., so one byte per task is queued
# while there are at most 256 tasks
_NAMES = 256


def run_tasks(
    tasks: list[Callable[[], object]], workers: int, meanwhile: Callable[[], None]
) -> list[object]:
    """The value of each task, in order, each task run once by one of
    ``workers`` forked children while the caller runs ``meanwhile()``."""
    queue, fill = os.pipe()
    with os.fdopen(fill, "wb") as pipe:
        pipe.write(bytes(range(min(len(tasks), _NAMES))))
    children: list[Forked] = []
    try:
        for _ in range(workers):
            children.append(Forked(lambda: _take_tasks(tasks, queue)))
        meanwhile()
        taken = _results(children) if children else [_take_tasks(tasks, queue)]
    except BaseException:
        for child in children:
            child.kill()
        raise
    finally:
        os.close(queue)
    values = {index: value for part in taken for index, value in part.items()}
    return [values[index] for index in range(len(tasks))]


def _take_tasks(tasks: list[Callable[[], object]], queue: int) -> dict[int, object]:
    """Run the tasks the bytes read from ``queue`` name, until it ends;
    their values by index."""
    values = {}
    while name := os.read(queue, 1):
        for index in range(name[0], len(tasks), _NAMES):
            values[index] = tasks[index]()
    return values


class Forked:
    """A child that runs ``task()`` and sends back its outcome."""

    def __init__(self, task: Callable[[], object]):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            # the child's collections skip the objects it inherited, so
            # they neither walk them nor write to their pages
            gc.freeze()
            os.close(read_fd)
            _child_main(task, write_fd)
        os.close(write_fd)
        self.pid: Optional[int] = pid  # None once reaped
        self.fd = read_fd

    def finish(self, data: bytes) -> object:
        """Reap the child whose pipe has ended with ``data``; its value."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        os.close(self.fd)
        if status < 0:
            raise RuntimeError(f"forked child killed by signal {-status}")
        if status != 0 or not data:
            raise RuntimeError(f"forked child exited with status {status} and no result")
        kind, value = pickle.loads(data)
        if kind == "error":
            raise value
        return value

    def kill(self) -> None:
        """End and reap the child, unless it has been reaped."""
        if self.pid is None:
            return
        os.close(self.fd)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def _results(children: list[Forked]) -> list[object]:
    """The value of each child, in the order the children finish."""
    chunks: dict[int, list[bytes]] = {child.fd: [] for child in children}
    pending = {child.fd: child for child in children}
    values = []
    while pending:
        for fd in select.select(list(pending), [], [])[0]:
            data = os.read(fd, 1 << 16)
            if data:
                chunks[fd].append(data)
            else:
                values.append(pending.pop(fd).finish(b"".join(chunks[fd])))
    return values


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
