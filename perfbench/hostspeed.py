"""How fast the host runs Python right now, measured by a fixed kernel.

The sandbox this benchmark was built on shares its cores: the same
code runs up to a third slower for spells of seconds to minutes.  Every
item is therefore bracketed by runs of a fixed reference kernel, and
each item's time is scaled to a nominal host on which the kernel takes
``NOMINAL_S``.  The kernel does the kind of work the engine does
(frozen slotted dataclasses, structural hashing, set and dict probes,
tuple growth) but shares no code with it, so a change to the engine
never moves the scale.  Raw times are reported next to scaled ones.
"""
from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.032  # kernel time on the nominal host
SAMPLE_EVERY_S = 0.2  # least item time between two kernel runs


@dataclass(frozen=True, slots=True)
class _Node:
    tag: str
    kids: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (i,))
    return _Node("pair", (_tree(depth - 1, i), _tree(depth - 1, i + 1)))


def _chain(n: int) -> _Node:
    node = _Node("zero", ())
    for _ in range(n):
        node = _Node("succ", (node,))
    return node


def kernel() -> int:
    """Shallow wide structures, then deep narrow ones, as the workloads use."""
    seen = set()
    index = {}
    hits = 0
    for i in range(420):
        t = _tree(4, i % 17)
        if t in seen:
            hits += 1
        seen.add(t)
        path = ()
        for k in range(12):
            path = path + (k,)
            index[(i & 63, k)] = path
        if isinstance(t.kids[0], _Node):
            hits += len(t.kids)
    for i in range(12):
        c = _chain(40 + i % 7)
        path = ()
        for _ in range(20):
            path = path + (c,)
            hits += hash(path) & 1
        hits += c == _chain(40 + i % 7)
    return hits + len(index)


def kernel_s(repeat: int = 1) -> float:
    """Median time of ``repeat`` kernel runs."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Kernel samples taken between items, to scale each item's time."""

    def __init__(self):
        self.at = []  # start time of each sample
        self.took = []  # kernel seconds of each sample
        self._last = None

    def sample(self) -> None:
        t0 = perf_counter()
        self.at.append(t0)
        self.took.append(kernel_s())
        self._last = perf_counter()

    def maybe_sample(self) -> None:
        if self._last is None or perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, start: float) -> float:
        """Nominal over local kernel time, for an item that started at ``start``.

        The local kernel time is the median of the two samples before
        and the two after the item: one sample is noisy, and spells of a
        slower host last longer than four samples.
        """
        i = bisect.bisect_right(self.at, start)
        return NOMINAL_S / statistics.median(self.took[max(i - 2, 0):i + 2])

    def median_s(self) -> float:
        return statistics.median(self.took)
