"""Credit scheduler — the Gdev baseline (Section 2).

Gdev [20] realizes fairness with a non-preemptive variant of Xen's Credit
scheduler: each task holds a credit balance replenished periodically in
proportion to its share; a task with positive credit submits freely, a
task that has exhausted its credit blocks until the next replenishment.
Being non-preemptive, a large request may overdraw the balance; the debt
is repaid out of future replenishments.  Every request is intercepted and
its completion watched (per-request engagement).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import register_scheduler
from repro.core.engaged import EngagedScheduler, HeldRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.task import Task
    from repro.sim.events import Event


@register_scheduler
class CreditScheduler(EngagedScheduler):
    """Non-preemptive credit-based fair sharing."""

    name = "credit"

    #: Replenishment period (µs).
    period_us = 10_000.0
    #: Maximum banked credit, as a multiple of one period's share.
    bank_cap_periods = 2.0

    def setup(self) -> None:
        super().setup()
        self._credit: dict[int, float] = {}
        self.replenishments = 0
        self.sim.spawn(self._replenisher(), name=f"{self.name}-scheduler")

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------
    def admit(
        self, task: "Task", channel: "Channel", held: HeldRequest
    ) -> Optional["Event"]:
        credit = self._credit.get(task.task_id, 0.0)
        if credit > 0.0:
            return None
        self.emit_denial(task, -credit)
        return self.add_waiter(task)

    def charge(self, task: "Task", channel: "Channel", service_us: float) -> None:
        self._credit[task.task_id] = self._credit.get(task.task_id, 0.0) - service_us

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        self._credit.pop(task.task_id, None)

    # ------------------------------------------------------------------
    # Replenishment
    # ------------------------------------------------------------------
    def _replenisher(self):
        while True:
            yield self.period_us
            sharers = [task for task in self.managed_tasks if task.alive]
            if not sharers:
                continue
            self.replenishments += 1
            share = self.period_us / len(sharers)
            cap = self.bank_cap_periods * share
            for task in sharers:
                balance = self._credit.get(task.task_id, 0.0) + share
                self._credit[task.task_id] = min(balance, cap)
                if self._credit[task.task_id] > 0.0:
                    self.release_waiters(task)
