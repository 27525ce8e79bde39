"""Tasks — the resource principals the schedulers arbitrate among."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import GpuContext
    from repro.sim.process import Process


class TaskState(enum.Enum):
    RUNNING = "running"
    BLOCKED = "blocked"  # delayed inside the fault handler by the scheduler
    DEAD = "dead"


class Task:
    """An OS process (or VM) using the accelerator.

    The schedulers see tasks only as opaque principals; all per-scheduler
    state lives in the scheduler's own tables keyed by ``task_id``, which
    the kernel draws from its simulator's ``"task"`` id counter.
    """

    def __init__(self, name: str, task_id: int) -> None:
        self.task_id = task_id
        self.name = name
        self.state = TaskState.RUNNING
        self.contexts: list["GpuContext"] = []
        #: The simulation process running the task's workload body; set by
        #: the workload when it starts.
        self.process: Optional["Process"] = None
        #: Reason string recorded when the kernel kills the task.
        self.kill_reason: Optional[str] = None
        #: Free-form slot for workload models to attach themselves.
        self.workload: Any = None

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.DEAD

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(#{self.task_id} {self.name}, {self.state.value})"
