"""Engaged start-time fair queueing (SFQ) — a related-work baseline.

Implements the classic fair queueing discipline the paper's Section 2
cites (start-tag ordering [14, 18, 33]) at per-request granularity: every
register page stays protected, every request is tagged with

* ``start = max(system_virtual_time, last_finish_tag_of_task)``
* ``finish = start + estimated_size``

and dispatch is ordered by start tag with a bounded number of outstanding
requests.  This gives strong fairness but pays the full interception cost
on the fast path — the overhead the disengaged designs eliminate.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Optional

from repro.core.base import SchedulerBase, register_scheduler
from repro.neon.stats import ObservedServiceMeter, RequestSizeEstimator
from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.request import Request
    from repro.osmodel.task import Task
    from repro.sim.events import Event

#: Size prior (µs) for channels with no observations yet.
DEFAULT_SIZE_GUESS_US = 100.0


@register_scheduler
class EngagedFairQueueing(SchedulerBase):
    """Per-request start-time fair queueing."""

    name = "engaged-fq"

    #: Maximum requests outstanding on the device at once.  One at a time
    #: gives the scheduler full dispatch-order control (the throughput
    #: price of per-request scheduling the paper criticizes).
    depth = 1

    #: Anticipation delay before dispatching after a completion: a
    #: closed-loop task resubmits a few µs after its request finishes, and
    #: without a short wait the dispatcher would always pick from stale
    #: backlog (degenerating to alternation).  Classic anticipatory
    #: scheduling; it also charges the per-request schedulers their real
    #: idleness cost.
    anticipation_us = 10.0

    #: Completion-observation period (µs) — standing in for the interrupt
    #: path the driver-level schedulers the paper cites rely on.
    completion_poll_us = 5.0

    def setup(self) -> None:
        # Per-request schedulers need fine completion observation (the role
        # interrupts play in GERM/TimeGraph); pay the CPU cost.
        self.kernel.polling.set_interval(self.completion_poll_us)
        self.system_vt = 0.0
        self._last_finish: dict[int, float] = {}
        #: Min-heap of (start_tag, tie, task, request, wake event).
        self._pending: list = []
        self._tie = itertools.count()
        self._released: set[int] = set()
        self._outstanding = 0
        self._meter = ObservedServiceMeter()
        self._sizes: dict[int, RequestSizeEstimator] = {}
        self.dispatched_requests = 0

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    def on_channel_tracked(self, channel: "Channel") -> None:
        self.neon.engage_channel(channel)
        self._sizes[channel.channel_id] = RequestSizeEstimator()

    def on_fault(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> Optional["Event"]:
        if request.request_id in self._released:
            return None  # tagged earlier, dispatched from the pending heap
        start_tag = max(self.system_vt, self._last_finish.get(task.task_id, 0.0))
        size = self._estimate(channel)
        self._last_finish[task.task_id] = start_tag + size
        if self._outstanding < self.depth and not self._pending:
            self._release(task, request, start_tag)
            return None
        event = self.sim.event()
        heapq.heappush(
            self._pending, (start_tag, next(self._tie), task, request, event)
        )
        return event

    def on_submit(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> None:
        self._released.discard(request.request_id)
        submit_time = self.sim.now

        def on_completion(observed: "Channel") -> None:
            service = self._meter.measure(
                observed.channel_id, submit_time, self.sim.now
            )
            estimator = self._sizes.get(observed.channel_id)
            if estimator is not None:
                estimator.record(service)
            self._on_request_done()

        self.kernel.polling.watch(channel, request.ref, on_completion)

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        self._last_finish.pop(task.task_id, None)
        # Wake the task's queued requests so their processes can unwind.
        remaining = []
        for entry in self._pending:
            if entry[2] is task:
                self._released.add(entry[3].request_id)
                if not entry[4].triggered:
                    entry[4].trigger()
            else:
                remaining.append(entry)
        if len(remaining) != len(self._pending):
            self._pending = remaining
            heapq.heapify(self._pending)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _estimate(self, channel: "Channel") -> float:
        estimator = self._sizes.get(channel.channel_id)
        if estimator is None or estimator.mean is None:
            return DEFAULT_SIZE_GUESS_US
        return estimator.mean

    def _release(self, task: "Task", request: "Request", start_tag: float) -> None:
        self._released.add(request.request_id)
        self._outstanding += 1
        self.dispatched_requests += 1
        self.system_vt = max(self.system_vt, start_tag)
        self.kernel.metrics.inc("releases", task.name)
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.REQUEST_RELEASED,
                task=task.name, start_tag=start_tag,
            )

    def _on_request_done(self) -> None:
        self._outstanding = max(0, self._outstanding - 1)
        self.sim.schedule_after(self.anticipation_us, self._dispatch_pending)

    def _dispatch_pending(self) -> None:
        while self._pending and self._outstanding < self.depth:
            start_tag, _tie, task, request, event = heapq.heappop(self._pending)
            self._release(task, request, start_tag)
            if not event.triggered:
                event.trigger()
