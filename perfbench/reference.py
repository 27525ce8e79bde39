"""A fixed piece of pure-Python work that gauges the host's current speed.

The host this benchmark runs on is shared: its speed swings by half within
a minute and changes from one second to the next, and a run's host times
swing with it (their spread over runs of 20-40 s stays near 25%).  During a
timed pass a :class:`Gauge` therefore runs a reference slice every
:data:`PERIOD_S`, and each step of the pass (a cell, or the span fold on
``monitored``) is reported in reference units (``ref``): its host time, less
the slices run inside it, over the mean host time of the slices run inside
it and next to it.  The mean, not the median, because a step's time adds
up the host's speed over the whole step, slow moments included.
Normalised step by step, the spread over runs falls to a few percent.  A change to the program cannot change a slice, so a
time in ``ref`` moves only when the program's own cost moves.

A slice is a small discrete-event loop with the simulator's mix of work:
generator resumption, a heap of timed events, attribute updates on slotted
objects and dictionary counters.  It allocates little and touches nothing
outside itself.
"""

from __future__ import annotations

import heapq
import signal
import time
from bisect import bisect_left, bisect_right

#: Events one slice processes; about 2.5 ms on a 2-vCPU cloud host.
SLICE_EVENTS = 4_000
#: Processes taking turns in a slice.
SLICE_PROCESSES = 16
#: Host seconds between the starts of two slices in a gauged pass.
PERIOD_S = 0.04


class _Channel:
    __slots__ = ("busy_until", "served", "name")

    def __init__(self, name: str) -> None:
        self.busy_until = 0
        self.served = 0
        self.name = name


def _process(channel: _Channel, period: int):
    now = yield 0
    while True:
        start = max(now, channel.busy_until)
        channel.busy_until = start + period
        channel.served += 1
        now = yield channel.busy_until - now + period


def _work() -> int:
    channels = [_Channel(f"ch{k % 4}") for k in range(SLICE_PROCESSES)]
    heap = []
    for k, channel in enumerate(channels):
        process = _process(channel, 3 + k % 5)
        heap.append((process.send(None), k, channel, process))
    heapq.heapify(heap)
    counts: dict[str, int] = {}
    seq = len(heap)
    for _ in range(SLICE_EVENTS):
        now, _seq, channel, process = heapq.heappop(heap)
        delay = process.send(now)
        seq += 1
        heapq.heappush(heap, (now + delay, seq, channel, process))
        counts[channel.name] = counts.get(channel.name, 0) + 1
    return sum(counts.values()) + sum(c.served for c in channels)


def slice_s() -> float:
    """Host seconds one reference slice takes now."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def _end_of(entry: tuple[float, float]) -> float:
    return entry[0]


class Gauge:
    """Reference slices every :data:`PERIOD_S` of a pass, from a timer.

    Used as a context manager around a timed pass.  The slices run in this
    thread from ``SIGALRM``, between two bytecodes of the program, so they
    sample the host's speed inside long steps as well as between short ones.
    The program shares no state with a slice, so its results do not change.
    """

    def __init__(self) -> None:
        #: (host clock at its end, host seconds) of every slice, in order.
        self.slices: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_signal) -> None:
        if self._busy:  # a late tick while a slice runs
            return
        self._busy = True
        try:
            taken = slice_s()
            self.slices.append((time.perf_counter(), taken))
        finally:
            self._busy = False

    @property
    def spent_s(self) -> float:
        return sum(taken for _end, taken in self.slices)

    def step(self, start: float, end: float) -> tuple[float, float]:
        """A step's host seconds and ref, from host clock ``start`` to ``end``.

        Both leave out the slices that ran inside the step; the unit is the
        mean of those slices and the one on either side of the step.
        """
        first = bisect_left(self.slices, start, key=_end_of)
        last = bisect_right(self.slices, end, key=_end_of)
        inside = sum(taken for _end, taken in self.slices[first:last])
        around = self.slices[max(0, first - 1):last + 1]
        seconds = end - start - inside
        unit = sum(taken for _end, taken in around) / len(around)
        return seconds, seconds / unit
