"""The discrete-event simulator core.

A :class:`Simulator` owns the virtual clock and one binary heap of
scheduled callbacks, stored as plain tuples::

    (time, seq, handle, fn, args)

ordered by ``(time, seq)``.  ``seq`` is a monotonically increasing
scheduling sequence number, so callbacks scheduled for the same instant
fire in the order they were scheduled (FIFO tie-breaking), which makes
every simulation deterministic.  ``seq`` values are unique, so ordering
comparisons stay inside the C tuple compare and never reach the
non-orderable tail.  ``handle`` is a :class:`TimerHandle` for cancellable
entries and ``None`` for the handle-free pushes that nothing ever cancels
(:meth:`Simulator.schedule_now`, :meth:`Simulator.schedule_after`, event
fan-out, process sleeps and wakeups).  A handle-free entry whose purpose
lapsed — a killed process's sleep, an aborted request's completion
timer — stays queued and fires as a no-op at its time: its callback finds
a stale wait token or generation and returns without pushing anything.

Cancelling marks the handle and bumps the simulator's cancelled-entry
counter; cancelled entries are skipped when they reach the head of the
heap.  Once they are the majority (and at least
``Simulator.COMPACT_MIN_CANCELLED`` of them exist) the heap is compacted
in place, bounding memory under schedule/cancel churn (watchdog timeout
patterns).
Compaction cannot reorder live entries — the order is total.

The push sites — :meth:`Simulator.schedule`, :meth:`Simulator.schedule_at`,
:meth:`Simulator.schedule_now`, :meth:`Simulator.schedule_after`, the
fan-out of :meth:`Event.trigger <repro.sim.events.Event.trigger>`, the
sleep path of :meth:`Process._resume <repro.sim.process.Process._resume>`,
and :meth:`Simulator.run` putting back a head that is not yet due — and the
pop loops (:meth:`Simulator.run`, :meth:`Simulator.step`) call ``heapq``
directly on ``Simulator._heap``: event dispatch is the simulator's hot
path.  Only the first six take a new ``seq``.  ``run`` holds the heap
list in a local, which is why compaction (``heapify`` over the survivors)
rewrites the list in place instead of rebinding it.

The simulator also numbers the entities of the system it runs: tasks,
contexts, channels, requests and channel mappings draw their ids from
:meth:`Simulator.id_counter`, so a run's ids depend on nothing outside
its own simulator — unless it is given an ``id_counters`` dict shared
with other simulations whose records meet in one stream.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import inf
from typing import Any, Callable, Generator, Iterator, Optional

from repro.sim.events import Event, TimerHandle
from repro.sim.process import Process


class Simulator:
    """Event-driven simulator with a microsecond-resolution virtual clock.

    Typical use::

        sim = Simulator()

        def worker():
            yield 5.0            # sleep 5 microseconds
            done.trigger("ok")

        done = sim.event()
        sim.spawn(worker(), name="worker")
        sim.run(until=100.0)
    """

    #: Never compact below this many cancelled entries (tiny heaps are
    #: cheap to scan); only once cancelled entries are the majority is the
    #: O(n) rebuild amortized.
    COMPACT_MIN_CANCELLED = 64

    def __init__(
        self, id_counters: Optional[dict[str, Iterator[int]]] = None
    ) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        #: Cancelled entries still stored in ``_heap``.
        self._cancelled = 0
        self._seq = 0
        #: The stop time of the :meth:`run` in progress (``inf`` for a
        #: run without ``until``); None outside :meth:`run`.  Callbacks
        #: read it to tell whether a future entry fires in this run.
        self.until: Optional[float] = None
        #: Entity id sequences by kind; simulators handed the same dict
        #: share one numbering.
        self._id_counters = id_counters if id_counters is not None else {}

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` microseconds of virtual time."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = TimerHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, fn, args))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        handle = TimerHandle(time, seq, self)
        heappush(self._heap, (time, seq, handle, fn, args))
        return handle

    def schedule_now(self, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` at the current instant (internal fast path).

        Identical ordering semantics to ``schedule(0.0, ...)`` but without
        a cancellation handle — used by the event/process machinery, where
        stale wakeups are already guarded by tokens or trigger flags.
        """
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now, seq, None, fn, args))

    def schedule_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` microseconds, without a handle.

        The delay form of :meth:`schedule_now`: same ``(time, seq)`` place
        as ``schedule(delay, ...)``, minus the :class:`TimerHandle`.  For
        callers that never cancel; one whose wake may lapse guards it with
        its own token or generation, and the lapsed entry fires as a no-op.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, None, fn, args))

    def event(self) -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self)

    def spawn(
        self, generator: Generator, name: Optional[str] = None
    ) -> Process:
        """Start a new coroutine process.

        The generator is stepped for the first time via a zero-delay
        callback, so spawning inside a running callback is safe.
        """
        return Process(self, generator, name=name)

    def id_counter(self, kind: str) -> Iterator[int]:
        """This simulation's id sequence for ``kind``: 1, 2, 3, ...

        Every caller asking for the same kind shares one sequence, so the
        stacks of a multi-device fleet never hand out the same id twice.
        """
        counter = self._id_counters.get(kind)
        if counter is None:
            counter = self._id_counters[kind] = count(1)
        return counter

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Count one newly cancelled stored entry; compact when due."""
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors in place."""
        live = []
        for entry in self._heap:
            handle = entry[2]
            if handle is not None and handle._cancelled:
                handle._popped = True
            else:
                live.append(entry)
        heapify(live)
        # In place, never rebound: ``run`` holds the list in a local.
        self._heap[:] = live
        self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending callback.  Returns False when idle."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            handle = entry[2]
            if handle is not None:
                handle._popped = True
                if handle._cancelled:
                    self._cancelled -= 1
                    continue
            self.now = entry[0]
            entry[3](*entry[4])
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap is empty, or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if later events remain queued (they stay queued and a subsequent
        ``run`` call may continue).
        """
        if self.until is not None:
            raise RuntimeError("Simulator.run is not reentrant")
        heap = self._heap
        limit = self.until = inf if until is None else until
        try:
            while heap:
                entry = heappop(heap)
                handle = entry[2]
                if handle is not None and handle._cancelled:
                    handle._popped = True
                    self._cancelled -= 1
                    continue
                if entry[0] > limit:
                    # Not due yet: put it back (the order is total, so
                    # the next pop sees exactly the same head).
                    heappush(heap, entry)
                    break
                if handle is not None:
                    handle._popped = True
                self.now = entry[0]
                entry[3](*entry[4])
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.until = None

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks.

        Handle-free entries count until their time comes, lapsed ones too
        (a killed process's sleep): only a cancelled handle leaves the
        count early.
        """
        return len(self._heap) - self._cancelled

    @property
    def queued_entries(self) -> int:
        """Total stored heap entries, cancelled ones included."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.3f}, pending={self.pending_events})"
