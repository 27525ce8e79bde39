"""One-shot events, timer handles and composite wait conditions."""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class TimerHandle:
    """A cancellable handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule
    <repro.sim.engine.Simulator.schedule>`.  Calling :meth:`cancel` before
    the deadline prevents the callback from running; cancelling after it has
    fired is a harmless no-op.
    """

    __slots__ = ("time", "seq", "_cancelled", "_sim", "_popped")

    def __init__(self, time: float, seq: int, sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self._cancelled = False
        self._sim = sim
        #: Set once the entry has left the heap (fired, skipped or compacted
        #: away), so a late cancel does not count a stored entry.
        self._popped = False

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        if self._cancelled:
            return
        self._cancelled = True
        if not self._popped:
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "armed"
        return f"TimerHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class Event:
    """A one-shot event that processes can wait on.

    An event starts untriggered.  Calling :meth:`trigger` records a value,
    marks the event triggered, and schedules all registered callbacks to run
    at the current simulation time.  Callbacks added after triggering are
    scheduled immediately.  Triggering twice raises ``RuntimeError``.
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks", "_name")

    def __init__(self, sim: "Simulator", name: Optional[str] = None) -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []
        self._name = name

    def trigger(self, value: Any = None) -> "Event":
        """Fire the event, delivering ``value`` to all waiters."""
        if self.triggered:
            raise RuntimeError(f"event {self!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            # Equivalent to sim.schedule_now per callback, inlined: the
            # trigger fan-out is the hottest dispatch site in the core.
            sim = self.sim
            heap = sim._heap
            now = sim.now
            seq = sim._seq
            for callback in callbacks:
                # Process waiters register as (resume, token) pairs — the
                # fast path that skips building a wakeup closure per wait.
                if callback.__class__ is tuple:
                    heappush(
                        heap,
                        (now, seq, None, callback[0], (callback[1], value, None)),
                    )
                else:
                    heappush(heap, (now, seq, None, callback, (self,)))
                seq += 1
            sim._seq = seq
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)`` to run once the event triggers."""
        if self.triggered:
            self.sim.schedule_now(callback, self)
        else:
            self._callbacks.append(callback)

    def add_waiter(self, waiter: tuple) -> None:
        """Register a process waiter as a ``(resume, token)`` pair.

        Equivalent to ``add_callback`` with a closure calling
        ``resume(token, event.value, None)``, minus the closure: the
        trigger path dispatches the pair directly.  Same scheduling
        semantics, same FIFO position, one allocation less per wait.
        """
        if self.triggered:
            self.sim.schedule_now(waiter[0], waiter[1], self.value, None)
        else:
            self._callbacks.append(waiter)

    def discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Remove a previously registered callback if still pending."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self._name or "anonymous"
        state = "triggered" if self.triggered else "pending"
        return f"Event({label}, {state})"


class AnyOf:
    """Composite condition satisfied when any member event triggers.

    Yielded from a process as ``first = yield AnyOf(sim, [a, b])``; the
    resume value is the member :class:`Event` that fired first (earliest
    trigger wins deterministically; later triggers are ignored).
    """

    __slots__ = ("sim", "events", "_proxy")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        self.sim = sim
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        self._proxy = Event(sim, name="AnyOf")
        for event in self.events:
            event.add_callback(self._on_member)

    def _on_member(self, event: Event) -> None:
        if self._proxy.triggered:
            return
        # Withdraw from the losing members immediately: long-lived events
        # (task exits, watchdogs) would otherwise accumulate one stale
        # closure per historical wait.
        for other in self.events:
            if other is not event:
                other.discard_callback(self._on_member)
        self._proxy.trigger(event)

    def detach(self, callback: Optional[Callable[[Event], None]] = None) -> None:
        """Withdraw all member registrations (and ``callback`` from the proxy).

        Called when a waiter abandons the composite wait (e.g. the waiting
        process is killed) so that no member event keeps a reference to
        this condition, and no eventual member trigger schedules a dead
        wakeup through the proxy.
        """
        if callback is not None:
            self._proxy.discard_callback(callback)
        for event in self.events:
            event.discard_callback(self._on_member)

    @property
    def proxy(self) -> Event:
        """The internal one-shot event that fires on the first member."""
        return self._proxy
