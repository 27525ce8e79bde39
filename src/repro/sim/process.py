"""Generator-based coroutine processes.

A process wraps a Python generator.  The generator *yields* what it wants
to wait for and is resumed by the simulator when the wait is satisfied:

``yield 3.5``
    sleep for 3.5 microseconds of virtual time;
``yield event``
    wait for an :class:`~repro.sim.events.Event`; the resume value is the
    event's trigger value;
``yield AnyOf(sim, [a, b])``
    wait for the first of several events; the resume value is the member
    event that fired;
``yield process``
    join another process; the resume value is its return value.

A process may be killed asynchronously with :meth:`Process.kill`, which
throws :class:`ProcessKilled` into the generator.  Generators may catch it
to perform cleanup (and may even keep running — useful for modeling tasks
that survive a scheduler's protective action), but by default the exception
terminates them.  A sleep the kill interrupts is not withdrawn: its heap
entry stays until its time, then finds a stale wait token and does nothing.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional, Union

from repro.sim.events import AnyOf, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class ProcessKilled(Exception):
    """Thrown into a process generator when :meth:`Process.kill` is called."""

    def __init__(self, reason: str = "") -> None:
        super().__init__(reason)
        self.reason = reason


class ProcessCrashed(RuntimeError):
    """An exception escaped a process generator.

    Raised out of :meth:`Simulator.step` chained to the original error
    (``__cause__``), naming the failing process and the virtual time of the
    crash — without this, a traceback surfacing from a pool worker gives no
    hint of *which* experiment process died or when.
    """

    def __init__(self, name: str, at_us: float, original: BaseException) -> None:
        super().__init__(
            f"process {name!r} crashed at t={at_us:.3f}us: {original!r}"
        )
        self.process_name = name
        self.at_us = at_us


class Process:
    """A running coroutine inside a :class:`~repro.sim.engine.Simulator`."""

    def __init__(
        self, sim: "Simulator", generator: Generator, name: Optional[str] = None
    ) -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.alive = True
        self.killed = False
        self.done: Event = Event(sim, name=f"{self.name}.done")
        self.return_value: Any = None
        self._wait_token = 0
        #: (wait target, registered waiter pair) backing the current wait.
        self._pending_wait: Optional[tuple[Union[Event, AnyOf], tuple]] = None
        sim.schedule_now(self._resume, self._wait_token, None, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self, reason: str = "") -> None:
        """Throw :class:`ProcessKilled` into the generator.

        Safe to call at any point while the process is suspended; a no-op
        once the process has finished.  Every registration backing the
        current wait (event callback, AnyOf membership, join) is withdrawn
        so long-lived events do not accumulate stale closures; a pending
        sleep is left to fire as a stale no-op.
        """
        if not self.alive:
            return
        self._disarm()
        self._wait_token += 1  # invalidate any outstanding wakeups
        token = self._wait_token
        self.sim.schedule_now(self._resume, token, None, ProcessKilled(reason))

    # ------------------------------------------------------------------
    # Internal stepping machinery
    # ------------------------------------------------------------------
    def _resume(self, token: int, value: Any, exc: Optional[BaseException]) -> None:
        if token != self._wait_token or not self.alive:
            return  # stale wakeup from a cancelled wait
        self._wait_token += 1
        self._pending_wait = None
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value, killed=False)
            return
        except ProcessKilled:
            self._finish(None, killed=True)
            return
        except Exception as error:
            self._finish(None, killed=False)
            raise ProcessCrashed(self.name, self.sim.now, error) from error
        # Every resume ends in an arm, so the two common ones are inlined
        # here: a virtual-time sleep (exact float check) and waiting on an
        # Event or an Event subclass such as a request.  AnyOf and joins go
        # through _arm; numpy scalars, bool and other numeric subclasses
        # through isinstance.
        cls = target.__class__
        if cls is not float:
            if isinstance(target, Event):
                waiter = (self._resume, self._wait_token)
                target.add_waiter(waiter)
                self._pending_wait = (target, waiter)
                return
            if cls is not int and not isinstance(target, (int, float)):
                self._arm(target)
                return
            target = float(target)
        if target < 0:
            raise ValueError(f"negative delay: {target}")
        # A sleep needs no wakeup registration and no handle, just an entry
        # pushed straight onto the simulator's heap (Simulator.schedule_after,
        # inlined).  A kill leaves it queued; the token it carries is stale
        # by then, so it fires as a no-op.
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(
            sim._heap,
            (sim.now + target, seq, None, self._resume,
             (self._wait_token, None, None)),
        )

    def _arm(self, target: Any) -> None:
        """Register the wakeup for a composite wait or a join."""
        # Waits register a (resume, token) pair instead of a wakeup
        # closure; the event's trigger path dispatches it directly.
        waiter = (self._resume, self._wait_token)
        if isinstance(target, AnyOf):
            target.proxy.add_waiter(waiter)
            self._pending_wait = (target, waiter)
        elif isinstance(target, Process):
            target.done.add_waiter(waiter)
            self._pending_wait = (target.done, waiter)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported value: {target!r}"
            )

    def _disarm(self) -> None:
        """Withdraw every registration backing the current wait."""
        wait, self._pending_wait = self._pending_wait, None
        if wait is None:
            return
        target, callback = wait
        if isinstance(target, AnyOf):
            target.detach(callback)
        else:
            target.discard_callback(callback)

    def _finish(self, value: Any, killed: bool) -> None:
        self.alive = False
        self.killed = killed
        self.return_value = value
        self.done.trigger(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else ("killed" if self.killed else "done")
        return f"Process({self.name}, {state})"
