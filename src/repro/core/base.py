"""Scheduler base class and registry.

A scheduler is attached to a :class:`~repro.osmodel.kernel.Kernel` and from
then on receives the event-based interface of Section 3: task lifecycle,
channel activation, request faults (only while a channel is engaged), and
observed submissions.  All device knowledge flows through the scheduler's
:class:`~repro.neon.interception.InterceptionManager`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Type

from repro.core.hardening import DrainWatchdog
from repro.neon.interception import InterceptionManager
from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.request import Request
    from repro.osmodel.kernel import Kernel
    from repro.osmodel.task import Task
    from repro.sim.engine import Simulator
    from repro.sim.events import Event

#: Name → class map used by the experiment runner and the CLI.
scheduler_registry: dict[str, Type["SchedulerBase"]] = {}


def register_scheduler(cls: Type["SchedulerBase"]) -> Type["SchedulerBase"]:
    """Class decorator adding a scheduler to the registry."""
    scheduler_registry[cls.name] = cls
    return cls


class SchedulerBase:
    """Common scaffolding for all schedulers."""

    #: Registry key and display name.
    name = "base"

    def __init__(self) -> None:
        self.kernel: Optional["Kernel"] = None
        self.sim: Optional["Simulator"] = None
        self.neon: Optional[InterceptionManager] = None
        #: Tasks currently using the device (have live channels).
        self.managed_tasks: list["Task"] = []
        #: Engagement-boundary hooks (repro.fleet: migration commits,
        #: global re-weighting).  Each is a generator function taking the
        #: scheduler; it runs inside the engagement episode, after the
        #: drain, and may yield simulated time.  Empty list = zero cost.
        self.boundary_hooks: list = []
        #: Waiter ledger: task id -> events its blocked requests wait on.
        self._waiters: dict[int, list["Event"]] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, kernel: "Kernel") -> None:
        """Called by :meth:`Kernel.attach_scheduler`."""
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.neon = InterceptionManager(kernel)
        #: Drain supervision (retry/degrade/kill); see repro.core.hardening.
        self.watchdog = DrainWatchdog(self)
        self.setup()

    def setup(self) -> None:
        """Subclass hook: spawn scheduler processes, initialize state."""

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def on_task_start(self, task: "Task") -> None:
        """A task was created (it may not have channels yet)."""

    def on_task_exit(self, task: "Task") -> None:
        """A task exited or was killed: drop it from management and wake
        its blocked requests so their processes can unwind."""
        if task in self.managed_tasks:
            self.managed_tasks.remove(task)
        self.neon.release_task(task)
        self.release_waiters(task)

    def _manage(self, task: "Task") -> bool:
        """Add a task to the managed set; True if newly added."""
        if task in self.managed_tasks or not task.alive:
            return False
        self.managed_tasks.append(task)
        return True

    # ------------------------------------------------------------------
    # Channel lifecycle
    # ------------------------------------------------------------------
    def on_channel_active(self, channel: "Channel") -> None:
        """NEON discovery finished for a channel; track and decide its
        initial engagement."""
        self.neon.track(channel)
        self._manage(channel.task)
        self.on_channel_tracked(channel)

    def on_channel_tracked(self, channel: "Channel") -> None:
        """Subclass hook: set the channel's initial protection state."""

    # ------------------------------------------------------------------
    # Request events
    # ------------------------------------------------------------------
    def on_fault(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> Optional["Event"]:
        """A protected-page store faulted.

        Return ``None`` to let the request through, or an
        :class:`~repro.sim.events.Event` the task must wait on; the kernel
        re-invokes this method after the event fires, until it returns
        ``None``.
        """
        return None

    def on_submit(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> None:
        """An intercepted submission actually reached the device."""

    # ------------------------------------------------------------------
    # Waiter ledger
    # ------------------------------------------------------------------
    def add_waiter(self, task: "Task") -> "Event":
        """Block a faulting request of ``task``: the returned event fires
        at :meth:`release_waiters`, and the kernel then re-asks
        :meth:`on_fault`."""
        event = self.sim.event()
        self._waiters.setdefault(task.task_id, []).append(event)
        return event

    def release_waiters(self, task: "Task") -> None:
        """Wake every request of ``task`` blocked by :meth:`add_waiter`."""
        for event in self._waiters.pop(task.task_id, ()):
            if not event.triggered:
                event.trigger()

    # ------------------------------------------------------------------
    # Engagement boundaries
    # ------------------------------------------------------------------
    def run_boundary_hooks(self):
        """Run registered engagement-boundary hooks (a generator).

        Called by the concrete schedulers at the one point per episode /
        slice where the submission barrier is up and every channel has
        drained — the only moment fleet migration may commit.  Call
        sites guard on ``self.boundary_hooks`` so the common case stays
        byte-identical.
        """
        for hook in list(self.boundary_hooks):
            yield from hook(self)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def emit_share_sample(
        self,
        task: "Task",
        usage_us: float,
        interval_us: Optional[float] = None,
    ) -> None:
        """Attribute ``usage_us`` of device time to ``task`` over the
        scheduling interval just settled.

        Emitted at engagement boundaries (episode settlement, slice end)
        so the streaming windows (:mod:`repro.obs.windows`) can integrate
        per-tenant shares online.  Free when tracing is off.
        """
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.SHARE_SAMPLE,
                task=task.name, usage_us=usage_us,
                interval_us=usage_us if interval_us is None else interval_us,
            )

    def emit_denial(self, task: "Task", lag_us: float) -> None:
        """Count an admission denial of ``task``, ``lag_us`` past its due."""
        self.kernel.metrics.inc("denials", task.name)
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.DENIAL,
                task=task.name, lag_us=lag_us,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(tasks={len(self.managed_tasks)})"
