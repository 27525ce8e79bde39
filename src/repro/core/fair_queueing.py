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

from repro.core.base import register_scheduler
from repro.core.engaged import EngagedScheduler, HeldRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.task import Task
    from repro.sim.events import Event


@register_scheduler
class EngagedFairQueueing(EngagedScheduler):
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
        super().setup()
        self.system_vt = 0.0
        self._last_finish: dict[int, float] = {}
        #: Min-heap of (start_tag, tie, task, held request).
        self._pending: list = []
        self._tie = itertools.count()
        self._outstanding = 0
        self.dispatched_requests = 0

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------
    def admit(
        self, task: "Task", channel: "Channel", held: HeldRequest
    ) -> Optional["Event"]:
        start_tag = max(self.system_vt, self._last_finish.get(task.task_id, 0.0))
        self._last_finish[task.task_id] = start_tag + self.size_estimate(channel)
        if self._outstanding < self.depth and not self._pending:
            self._dispatch(task, start_tag)
            return None
        wake = self.hold(held)
        heapq.heappush(self._pending, (start_tag, next(self._tie), task, held))
        return wake

    def charge(self, task: "Task", channel: "Channel", service_us: float) -> None:
        self._outstanding = max(0, self._outstanding - 1)
        self.sim.schedule_after(self.anticipation_us, self._dispatch_pending)

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        self._last_finish.pop(task.task_id, None)
        # Wake the task's queued requests so their processes can unwind.
        remaining = []
        for entry in self._pending:
            if entry[2] is task:
                self.release(entry[3])
            else:
                remaining.append(entry)
        if len(remaining) != len(self._pending):
            self._pending = remaining
            heapq.heapify(self._pending)

    # ------------------------------------------------------------------
    # Order rule: start tags
    # ------------------------------------------------------------------
    def _dispatch(self, task: "Task", start_tag: float) -> None:
        self._outstanding += 1
        self.dispatched_requests += 1
        self.system_vt = max(self.system_vt, start_tag)
        self.emit_release(task, start_tag=start_tag)

    def _dispatch_pending(self) -> None:
        while self._pending and self._outstanding < self.depth:
            start_tag, _tie, task, held = heapq.heappop(self._pending)
            self._dispatch(task, start_tag)
            self.release(held)
