"""Deficit round-robin — the GERM baseline (Section 2).

GERM [11] achieves fair-share GPU allocation with a deficit round-robin
scheduler [34] over per-task command queues.  Here each task's intercepted
requests wait in a FIFO; a scheduler process cycles among backlogged
tasks, granting each a quantum of device time per round and releasing
requests while the task's deficit covers their estimated size.  Every
request is intercepted and its completion watched — per-request kernel
cost on the fast path, like all pre-disengagement schedulers.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.base import register_scheduler
from repro.core.engaged import EngagedScheduler, HeldRequest
from repro.sim.events import AnyOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.task import Task
    from repro.sim.events import Event


@register_scheduler
class DeficitRoundRobin(EngagedScheduler):
    """Per-request deficit round-robin over task FIFOs."""

    name = "drr"

    #: Device time granted per task per round (µs).  GERM favours small
    #: quanta: a large quantum makes think-time tasks wait out their
    #: peers' full bursts.
    quantum_us = 500.0

    #: Wait this long after a completion for the closed-loop task to
    #: resubmit before concluding its queue is empty (anticipatory
    #: scheduling; see EngagedFairQueueing.anticipation_us).
    anticipation_us = 10.0

    #: Completion-observation period (µs); see EngagedFairQueueing.
    completion_poll_us = 5.0

    def setup(self) -> None:
        super().setup()
        #: Task id -> FIFO of (channel, held request).
        self._queues: dict[int, deque] = {}
        self._deficit: dict[int, float] = {}
        self._activation: Optional["Event"] = None
        self._rr_index = 0
        self.rounds = 0
        self.sim.spawn(self._loop(), name=f"{self.name}-scheduler")

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------
    def admit(
        self, task: "Task", channel: "Channel", held: HeldRequest
    ) -> Optional["Event"]:
        wake = self.hold(held)
        self._queues.setdefault(task.task_id, deque()).append((channel, held))
        if self._activation is not None and not self._activation.triggered:
            self._activation.trigger()
        return wake

    def charge(self, task: "Task", channel: "Channel", service_us: float) -> None:
        self._deficit[task.task_id] = (
            self._deficit.get(task.task_id, 0.0) - service_us
        )

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        for _channel, held in self._queues.pop(task.task_id, ()):
            self.release(held)
        self._deficit.pop(task.task_id, None)

    # ------------------------------------------------------------------
    # Order rule: the round-robin loop
    # ------------------------------------------------------------------
    def _backlogged(self) -> list["Task"]:
        return [
            task
            for task in self.managed_tasks
            if task.alive and self._queues.get(task.task_id)
        ]

    def _loop(self):
        while True:
            backlogged = self._backlogged()
            if not backlogged:
                self._activation = self.sim.event()
                yield self._activation
                self._activation = None
                continue
            self.rounds += 1
            task = backlogged[self._rr_index % len(backlogged)]
            self._rr_index += 1
            deficit = self._deficit.get(task.task_id, 0.0) + self.quantum_us
            self._deficit[task.task_id] = deficit
            yield from self._serve(task)
            if not self._queues.get(task.task_id):
                # An emptied queue forfeits its leftover deficit (DRR rule).
                self._deficit[task.task_id] = 0.0

    def _serve(self, task: "Task"):
        queue = self._queues.get(task.task_id)
        while queue and task.alive:
            channel, held = queue[0]
            if self.size_estimate(channel) > self._deficit.get(task.task_id, 0.0):
                break
            queue.popleft()
            done = self.sim.event()
            self.emit_release(task, channel=channel.channel_id)
            self.release(held, done)
            deadline = self.sim.event()
            timer = self.sim.schedule(self.costs.max_request_us, deadline.trigger)
            first = yield AnyOf(self.sim, [done, deadline])
            if first is done:
                timer.cancel()
                # Give the task a beat to resubmit so its deficit can be
                # spent on consecutive requests (closed-loop anticipation).
                yield self.anticipation_us
            else:
                self.kernel.kill_task(
                    task, "request exceeded the documented maximum run time"
                )
                return
