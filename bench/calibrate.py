"""Times scaled to a fixed reference speed of the machine.

The host this benchmark was built on changes speed by up to a factor of two
in spells of about a second, and a spell can last as long as a whole run,
so a run's wall time says as much about the host as about the program.
While a round runs, a ``SIGALRM`` handler interrupts it every
``INTERVAL_S`` and times a fixed reference workload (``reference``), which
is the benchmark's own code and so does not change when the program does.
Each stretch of the program's work between two samples is scaled by the
reference time ``REFERENCE_S`` over the median of the four samples around
it (one sample can be hit by a hiccup of its own): the result is the time
the work would take at the speed at which the reference takes
``REFERENCE_S``.  The samples' own time is not counted.

On probes of 120-150 s of classifier and normalizer work while the host
swung between fast and slow spells, the interquartile spread of 10 s means
was 0.21-0.36 of the median in wall time and 0.02-0.10 scaled this way.
A reference that chases pointers through a structure larger than the
caches tracked the program worse than this small one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_S = 0.002  # one reference sample in a fast spell of the reference VM

# The reference workload: the kind of work the program does, written apart
# from it.  Hash-consed slotted nodes built from fixed tuple formulas,
# recursive walks with memo dictionaries, set unions and text rendering.
_SHAPES = (
    ("A", "x", ("|", ("E", "y", ("P", "R", ("x", "y"))), (">", ("P", "Q", ("x",)), ("F",)))),
    ("&", ("E", "z", ("A", "x", ("P", "R", ("z", "x")))), ("|", ("P", "P", ("y",)), ("F",))),
    (">", ("A", "y", ("E", "x", ("&", ("P", "Q", ("x",)), ("P", "R", ("y", "x"))))),
     ("E", "z", (">", ("P", "P", ("z",)), ("A", "x", ("P", "Q", ("x",)))))),
)


class _Node:
    __slots__ = ("tag", "kids", "var", "free", "size")

    def __init__(self, tag, kids, var, free, size):
        self.tag, self.kids, self.var, self.free, self.size = tag, kids, var, free, size


def _build(shape, table):
    tag = shape[0]
    if tag == "F":
        key, kids, var, free = ("F",), (), None, frozenset()
    elif tag == "P":
        key, kids, var, free = shape, (), None, frozenset(shape[2])
    elif tag in ("E", "A"):
        body = _build(shape[2], table)
        key, kids, var = (tag, shape[1], id(body)), (body,), shape[1]
        free = body.free - {var}
    else:
        left, right = _build(shape[1], table), _build(shape[2], table)
        key, kids, var, free = (tag, id(left), id(right)), (left, right), None, left.free | right.free
    node = table.get(key)
    if node is None:
        node = table[key] = _Node(tag, kids, var, free, 1 + sum(k.size for k in kids))
    return node


def _render(node, out):
    if node.tag in ("E", "A"):
        out.append(f"({node.tag} {node.var}. ")
        _render(node.kids[0], out)
        out.append(")")
    elif node.kids:
        out.append("(")
        _render(node.kids[0], out)
        out.append(f" {node.tag} ")
        _render(node.kids[1], out)
        out.append(")")
    else:
        out.append(node.tag)


def _depth(node, memo):
    got = memo.get(node)
    if got is None:
        got = memo[node] = 1 + max((_depth(k, memo) for k in node.kids), default=0)
    return got


def reference(rounds: int = 40) -> int:
    """Fixed work; returns a checksum so that none of it is optimised away."""
    total = 0
    for _ in range(rounds):
        table: dict = {}
        memo: dict = {}
        for shape in _SHAPES:
            node = _build(shape, table)
            out: list[str] = []
            _render(node, out)
            total += len("".join(out)) + _depth(node, memo) + node.size + len(node.free)
    return total


class Sampler:
    """Samples the reference every ``INTERVAL_S`` while it is running."""

    def __init__(self):
        self.starts: list[float] = []  # handler entry times
        self.ends: list[float] = []  # handler exit times
        self.refs: list[float] = []  # reference time of each sample
        for _ in range(5):  # warm the interpreter's specialisation
            reference()
        for _ in range(3):  # the speed just after set-up
            self.sample()

    def sample(self, *_signal) -> None:
        clock = time.perf_counter
        entered = clock()
        enabled = gc.isenabled()
        gc.disable()  # the reference neither pays for nor triggers the program's collections
        start = clock()
        reference()
        ref = clock() - start
        if enabled:
            gc.enable()
        self.starts.append(entered)
        self.refs.append(ref)
        self.ends.append(clock())

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def speed(self) -> float:
        """Mean reference time so far over ``REFERENCE_S``: 1 at the reference
        speed, 2 when the machine runs at half of it."""
        return sum(self.refs) / len(self.refs) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """Program time in ``[start, end]`` at the reference speed.

        Gap ``i`` runs from the end of sample ``i`` to the start of sample
        ``i + 1``; the part of ``[start, end]`` in it is scaled by the
        median of samples ``i - 1`` to ``i + 2``.  ``[start, end]`` must lie
        between the first and the last sample.
        """
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, start) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < end:
            lo, hi = max(start, self.ends[i]), min(end, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * REFERENCE_S / statistics.median(self.refs[max(0, i - 1):i + 3])
            i += 1
        return total
