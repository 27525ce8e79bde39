"""Timeslice with overuse control — the fully engaged scheduler (§3.1).

A token circulates among managed tasks; only the holder's requests are
allowed through, and *every* request is intercepted (all register pages
stay protected at all times).  At each slice boundary the scheduler waits
for the holder's outstanding requests to drain, charges the excess to the
holder's overuse ledger, and kills the holder if a request appears to run
away.  Fairness is guaranteed; the price is per-request interception cost
and non-work-conserving idling when the holder has no work.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import SchedulerBase, register_scheduler
from repro.core.overuse import OveruseLedger
from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.request import Request
    from repro.osmodel.task import Task
    from repro.sim.events import Event


@register_scheduler
class TimesliceScheduler(SchedulerBase):
    """Token-based timeslicing with per-request interception."""

    name = "timeslice"

    def setup(self) -> None:
        self.token_holder: Optional["Task"] = None
        self.overuse = OveruseLedger(self.costs.timeslice_us)
        self._rr_index = 0
        self._activation: Optional["Event"] = None
        self.slices_granted = 0
        self._slice_started = 0.0
        self.sim.spawn(self._loop(), name=f"{self.name}-scheduler")

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    def on_channel_tracked(self, channel: "Channel") -> None:
        self.neon.engage_channel(channel)  # engaged: intercept everything
        if self.neon.preemption_available and channel.task is not self.token_holder:
            self.neon.mask_channel(channel)  # park until the task's next slice
        if self._activation is not None and not self._activation.triggered:
            self._activation.trigger()

    def on_fault(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> Optional["Event"]:
        if task is self.token_holder:
            return None
        return self.add_waiter(task)

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        self.overuse.forget(task)
        if task is self.token_holder:
            self.token_holder = None

    # ------------------------------------------------------------------
    # Token machinery
    # ------------------------------------------------------------------
    def _pick(self) -> Optional["Task"]:
        """Round-robin over managed tasks, honoring overuse skips."""
        candidates = [task for task in self.managed_tasks if task.alive]
        if not candidates:
            return None
        for _ in range(len(candidates)):
            task = candidates[self._rr_index % len(candidates)]
            self._rr_index += 1
            if self.overuse.should_skip(task):
                continue
            if self.watchdog.is_quarantined(task):
                # Degraded after an undrainable slice: don't hand the
                # token back until nothing else is runnable.
                continue
            return task
        # Everyone owes at least a slice; after deducting above, just take
        # the next in order rather than idling the device forever.
        task = candidates[self._rr_index % len(candidates)]
        self._rr_index += 1
        return task

    def _grant(self, task: "Task") -> None:
        self.token_holder = task
        self.slices_granted += 1
        self._slice_started = self.sim.now
        self.kernel.metrics.inc("token_passes", task.name)
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.TOKEN_PASS,
                task=task.name, slice=self.slices_granted,
            )
        if self.neon.preemption_available:
            self.neon.unmask_task(task)  # reinstate on the runlist
        self.release_waiters(task)

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def _loop(self):
        while True:
            task = self._pick()
            if task is None:
                self._activation = self.sim.event()
                yield self._activation
                self._activation = None
                continue
            yield self.costs.page_flip_us  # token-pass bookkeeping
            self._grant(task)
            yield self.costs.timeslice_us
            self.token_holder = None
            yield from self._settle_slice(task)
            # The slice (plus any drain excess) was the task's exclusive
            # interval; attribute it for the streaming share windows.
            self.emit_share_sample(task, self.sim.now - self._slice_started)
            # Slice settled and the holder drained: an engagement
            # boundary (fleet migration / re-weighting hooks).
            if self.boundary_hooks:
                yield from self.run_boundary_hooks()

    def _settle_slice(self, task: "Task"):
        """End-of-slice: drain the holder, charge overuse, kill runaways.

        With hardware preemption (§6.2), in-flight work is saved and the
        task's channels parked instead: no drain wait, no overuse, and
        requests of arbitrary length — including infinite loops — are
        tolerated rather than killed.
        """
        if self.neon.preemption_available:
            self.neon.preempt_task(task)
            self.neon.mask_task(task)
            return
        slice_end = self.sim.now
        channels = self.neon.channels_of(task)
        if not channels:
            return
        result = yield from self.watchdog.drain_task(task, channels)
        if not result.drained:
            # The watchdog killed, quarantined, or gave up on the holder;
            # either way there is nothing to charge.
            return
        excess = self.sim.now - slice_end
        self.overuse.charge(task, excess)
        self.kernel.metrics.inc("overuse_charged_us", task.name, excess)
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.OVERUSE_CHARGE,
                task=task.name, excess_us=excess,
            )
