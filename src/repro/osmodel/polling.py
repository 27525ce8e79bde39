"""The kernel polling-thread service.

NEON cannot receive completion interrupts, so a kernel thread periodically
reads the reference counters of watched channels and reports progress to
the scheduler.  The polling period (1 ms by default) bounds how quickly the
scheduler learns of completions — the paper's stated source of draining
idleness ("the principal source of extra overhead is idleness during
draining, due to the granularity of polling").

The service runs on its own CPU core, so its per-check cost does not slow
application tasks; it is still accounted (``cpu_us``) for completeness.

Passes are *slotted*: watches are grouped per channel, and a channel is
only examined when it is **dirty** — its reference counter advanced since
the last pass (the channel notifies us via ``Channel._pollers``), or a
watch was registered on it since then.  Quiescent channels cost nothing.
The *modeled* pass cost is unchanged — the simulated kernel thread still
reads every watched counter, so ``poll_check_us * len(watches)`` is
charged exactly as before; only the host-side work is skipped.  Fired
callbacks run in ascending watch-id order, which is byte-for-byte the
order the previous full-scan implementation produced.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

from repro.faults import registry as fault_points
from repro.sim.events import AnyOf, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.costs import CostParams
    from repro.sim.engine import Simulator


class _Watch:
    __slots__ = ("watch_id", "channel", "target_ref", "callback", "cancelled")

    def __init__(
        self,
        watch_id: int,
        channel: "Channel",
        target_ref: int,
        callback: Callable[["Channel"], None],
    ) -> None:
        self.watch_id = watch_id
        self.channel = channel
        self.target_ref = target_ref
        self.callback = callback
        self.cancelled = False

    @property
    def satisfied(self) -> bool:
        return self.channel.refcounter >= self.target_ref


class PollingService:
    """Periodic reference-counter polling with scheduler prompting."""

    def __init__(
        self, sim: "Simulator", costs: "CostParams", cpu=None, faults=None
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.interval_us = costs.poll_interval_us
        #: Optional finite CPU pool; when set, polling passes consume a
        #: core instead of being free (the §5.2 single-CPU question).
        self.cpu = cpu
        #: Optional fault injector (repro.faults); None = no plan installed.
        self.faults = faults
        #: Watch ids are per-service (an earlier revision used a module
        #: global, so two kernels' polling threads interleaved their id
        #: spaces and fresh simulations saw different ids run to run).
        self._watch_ids = itertools.count(1)
        self._watches: dict[int, _Watch] = {}
        #: Per-channel watch slots (the calendar of the polling thread).
        self._slots: dict["Channel", dict[int, _Watch]] = {}
        #: Channels whose refcounter advanced — or gained a watch — since
        #: the last pass.  Only these are examined.
        self._dirty: dict["Channel", None] = {}
        self._prompt: Optional[Event] = None
        #: Cumulative CPU time consumed by polling passes.
        self.cpu_us = 0.0
        self.passes = 0
        self.process = sim.spawn(self._run(), name="polling-service")

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def watch(
        self,
        channel: "Channel",
        target_ref: int,
        callback: Callable[["Channel"], None],
    ) -> int:
        """Invoke ``callback(channel)`` once ``refcounter >= target_ref``.

        The condition is only checked at polling passes, never continuously
        — that is the point of the model.  Returns a watch id usable with
        :meth:`cancel`.
        """
        watch_id = next(self._watch_ids)
        watch = _Watch(watch_id, channel, target_ref, callback)
        self._watches[watch_id] = watch
        slot = self._slots.get(channel)
        if slot is None:
            self._slots[channel] = {watch_id: watch}
            channel._pollers.append(self)
        else:
            slot[watch_id] = watch
        # A fresh watch may already be satisfied; examine the channel on
        # the next pass regardless of counter movement.
        self._dirty[channel] = None
        return watch_id

    def cancel(self, watch_id: int) -> None:
        watch = self._watches.pop(watch_id, None)
        if watch is not None:
            # The flag — not dict membership — is what a mid-pass firing
            # loop rechecks, so a callback cancelling a sibling watch
            # reliably suppresses it (see _pass).
            watch.cancelled = True
            self._drop_slot(watch)

    def _drop_slot(self, watch: _Watch) -> None:
        channel = watch.channel
        slot = self._slots.get(channel)
        if slot is None:
            return
        slot.pop(watch.watch_id, None)
        if not slot:
            del self._slots[channel]
            try:
                channel._pollers.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass

    def mark_dirty(self, channel: "Channel") -> None:
        """Channel-side notification: the reference counter advanced."""
        self._dirty[channel] = None

    def set_interval(self, interval_us: float) -> None:
        """Change the polling period.

        Engaged per-request schedulers
        (:class:`~repro.core.engaged.EngagedScheduler`) need fine-grained
        completion observation — the role interrupts play in the systems
        the paper cites — and pay the correspondingly higher CPU cost.
        """
        if interval_us <= 0:
            raise ValueError("polling interval must be positive")
        self.interval_us = interval_us
        self.prompt()

    def prompt(self) -> None:
        """Request an immediate extra polling pass ("at the scheduler's
        prompt", Section 5.2)."""
        if self._prompt is not None and not self._prompt.triggered:
            self._prompt.trigger()

    @property
    def watch_count(self) -> int:
        return len(self._watches)

    # ------------------------------------------------------------------
    # The polling loop
    # ------------------------------------------------------------------
    def _run(self):
        while True:
            self._prompt = self.sim.event()
            interval = self.sim.event()
            timer = self.sim.schedule(self.interval_us, interval.trigger)
            yield AnyOf(self.sim, [interval, self._prompt])
            timer.cancel()
            if self.faults is not None:
                stall = self.faults.arm(fault_points.KERNEL_POLL_STALL)
                if stall is not None and stall.magnitude_us > 0:
                    yield stall.magnitude_us
            if self.cpu is not None:
                pass_cost = self.costs.poll_check_us * len(self._watches)
                yield from self.cpu.execute(pass_cost, "polling")
            self._pass()

    def _pass(self) -> None:
        self.passes += 1
        # The simulated thread reads every watched counter; the host only
        # touches dirty channels.  The modeled cost must not change.
        self.cpu_us += self.costs.poll_check_us * len(self._watches)
        dirty = self._dirty
        if not dirty:
            return
        self._dirty = {}
        fired: list[_Watch] = []
        slots = self._slots
        for channel in dirty:
            slot = slots.get(channel)
            if not slot:
                continue
            refcounter = channel.refcounter
            for watch in slot.values():
                if not watch.cancelled and refcounter >= watch.target_ref:
                    fired.append(watch)
        if not fired:
            return
        # Ascending watch id == registration order == the order the old
        # full scan fired them in.
        fired.sort(key=lambda watch: watch.watch_id)
        for watch in fired:
            # A callback that ran earlier this pass may have cancelled
            # this watch; it must not fire.  Watches are removed one at a
            # time, just before their callback, so cancel() can still find
            # (and flag) any watch that has not fired yet.
            if watch.cancelled:
                continue
            self._watches.pop(watch.watch_id, None)
            self._drop_slot(watch)
            watch.callback(watch.channel)
