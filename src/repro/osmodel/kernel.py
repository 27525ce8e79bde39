"""The OS kernel model: request paths, task lifecycle, protection hooks.

The kernel owns the only two ways a request can reach the device:

* a **direct store** to the channel register (cost: one MMIO write), when
  the register page is mapped; or
* a **trapped store** when the page is protected: the fault handler runs,
  the scheduler is consulted (and may block the task *inside the handler*,
  exactly as NEON sleeps the faulting process in process context), then the
  store is single-stepped.

Workload code submits with ``request = yield from kernel.submit(...)``,
paying the appropriate costs in virtual time; the returned request is its
own completion event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import OutOfResourcesError
from repro.faults import registry as fault_points
from repro.neon.discovery import ChannelDiscovery
from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.osmodel.costs import CostParams
from repro.osmodel.cpu import CpuPool
from repro.osmodel.polling import PollingService
from repro.osmodel.task import Task, TaskState
from repro.sim.trace import NullRecorder, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.context import GpuContext
    from repro.gpu.device import GpuDevice
    from repro.gpu.request import Request, RequestKind
    from repro.sim.engine import Simulator


@dataclass
class ChannelQuotaPolicy:
    """The Section 6.3 defense against channel-exhaustion DoS.

    Limits each task to ``channels_per_task`` channels (the constant *C*)
    and admits at most ``total_channels // C`` distinct tasks (the *D/C*
    rule), so no single task can starve others of channels.
    """

    channels_per_task: int = 4

    def admit_channel(self, kernel: "Kernel", task: Task) -> None:
        """Raise :class:`OutOfResourcesError` if the allocation violates
        the quota."""
        own = kernel.live_channels_of(task)
        if len(own) >= self.channels_per_task:
            raise OutOfResourcesError(
                f"task {task.name} exceeds quota of "
                f"{self.channels_per_task} channels"
            )
        holders = kernel.tasks_holding_channels()
        max_tasks = kernel.device.params.total_channels // self.channels_per_task
        if task not in holders and len(holders) >= max_tasks:
            raise OutOfResourcesError(
                f"device admits at most {max_tasks} tasks under quota"
            )


@dataclass
class MemoryQuotaPolicy:
    """§6.3's memory-protection extension: block excessive consumption.

    Caps any single task at ``max_fraction`` of device memory, so no one
    application can exhaust the onboard RAM and lock everyone else out.
    """

    max_fraction: float = 0.5

    def admit_allocation(
        self, kernel: "Kernel", task: Task, mib: float
    ) -> None:
        limit = self.max_fraction * kernel.device.params.memory_mib
        held = kernel.task_memory_usage(task)
        if held + mib > limit:
            raise OutOfResourcesError(
                f"task {task.name} would exceed its {limit:.0f} MiB "
                f"device-memory quota"
            )


class Kernel:
    """The protected-domain resource manager."""

    def __init__(
        self,
        sim: "Simulator",
        device: "GpuDevice",
        costs: Optional[CostParams] = None,
        trace: Optional[TraceRecorder] = None,
        quota: Optional[ChannelQuotaPolicy] = None,
        memory_quota: Optional["MemoryQuotaPolicy"] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.costs = costs or CostParams()
        self.costs.validate()
        self.trace = trace if trace is not None else NullRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Resolved once: the fault path runs per intercepted request.
        self._faults = self.metrics.counter("faults")
        #: Optional fault injector (repro.faults); None = no plan installed.
        self.faults = faults
        self.quota = quota
        self.memory_quota = memory_quota
        self.cpu: Optional[CpuPool] = (
            CpuPool(sim, self.costs.cpu_cores) if self.costs.cpu_cores > 0 else None
        )
        self.polling = PollingService(sim, self.costs, cpu=self.cpu, faults=faults)
        self.scheduler = None  # attached below; import cycle avoidance
        self.tasks: list[Task] = []
        #: Channel-discovery state machines, keyed by channel id.
        self.discoveries: dict[int, ChannelDiscovery] = {}
        self._request_ids = sim.id_counter("request")

    # ------------------------------------------------------------------
    # Scheduler attachment
    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler) -> None:
        """Couple a scheduler to the fault/polling interface."""
        self.scheduler = scheduler
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------
    def create_task(self, name: str) -> Task:
        task = Task(name, next(self.sim.id_counter("task")))
        self.tasks.append(task)
        if self.scheduler is not None:
            self.scheduler.on_task_start(task)
        return task

    def exit_task(self, task: Task) -> None:
        """Normal exit: release device resources, tell the scheduler."""
        if task.state is TaskState.DEAD:
            return
        task.state = TaskState.DEAD
        for context in task.contexts:
            self.device.kill_context(context)
        if self.scheduler is not None:
            self.scheduler.on_task_exit(task)
        if self.trace.enabled:
            self.trace.emit(self.sim.now, "kernel", events.TASK_EXIT,
                            task=task.name)

    def kill_task(self, task: Task, reason: str) -> None:
        """Protective kill (Section 3.1): terminate the OS process and let
        the driver's exit protocol reclaim device resources."""
        if task.state is TaskState.DEAD:
            return
        task.state = TaskState.DEAD
        task.kill_reason = reason
        for context in task.contexts:
            self.device.kill_context(context)
        if task.process is not None:
            task.process.kill(reason)
        if self.scheduler is not None:
            self.scheduler.on_task_exit(task)
        self.metrics.inc("task_kills", task.name)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "kernel", events.TASK_KILLED,
                task=task.name, reason=reason,
            )

    # ------------------------------------------------------------------
    # Setup syscalls (the ioctl/mmap path of Figure 1)
    # ------------------------------------------------------------------
    def open_context(self, task: Task) -> "GpuContext":
        """Create a device context (initialization-phase syscall)."""
        return self.device.create_context(task)

    def open_channel(self, task: Task, context: "GpuContext", kind: RequestKind):
        """Create a channel; applies the quota policy and runs NEON's
        channel-discovery state machine before marking it active.

        The three mmap events of channel setup (command buffer, ring
        buffer, channel register) drive the discovery machine; only once
        it reaches ACTIVE is the scheduler told about the channel — NEON
        cannot intercept what it has not located.
        """
        if self.quota is not None:
            self.quota.admit_channel(self, task)
        channel = self.device.create_channel(context, kind)
        discovery = ChannelDiscovery(
            channel.channel_id, self.sim.id_counter("vma")
        )
        self.discoveries[channel.channel_id] = discovery
        if self.faults is not None:
            corrupted = self.faults.arm(
                fault_points.NEON_DISCOVERY_CORRUPTION, task.name
            )
            if corrupted is not None:
                # The setup mmaps were misread: the channel stays
                # untracked (and unschedulable by NEON) until discovery
                # is retried after the repair delay.
                self.sim.schedule_after(
                    corrupted.magnitude_us, self._repair_discovery, channel
                )
                return channel
        discovery.run_full_setup()
        if discovery.active and self.scheduler is not None:
            self.scheduler.on_channel_active(channel)
        return channel

    def _repair_discovery(self, channel: "Channel") -> None:
        """Retry a corrupted channel discovery (fault-injection recovery)."""
        if channel.dead:
            return
        discovery = self.discoveries.get(channel.channel_id)
        if discovery is None or discovery.active:
            return
        discovery.run_full_setup()
        if discovery.active and self.scheduler is not None:
            self.scheduler.on_channel_active(channel)

    def allocate_memory(self, task: Task, context: "GpuContext", mib: float) -> None:
        """Allocate device memory on behalf of a task (mmap/ioctl path),
        applying the memory quota when one is configured."""
        if context.task is not task:
            raise ValueError("allocation on another task's context")
        if self.memory_quota is not None:
            self.memory_quota.admit_allocation(self, task, mib)
        self.device.memory.allocate(context, mib)

    def free_memory(self, task: Task, context: "GpuContext", mib: float) -> None:
        if context.task is not task:
            raise ValueError("free on another task's context")
        self.device.memory.free(context, mib)

    def task_memory_usage(self, task: Task) -> float:
        """Device memory currently held by a task, across its contexts."""
        return sum(
            self.device.memory.context_usage(context)
            for context in task.contexts
        )

    def live_channels_of(self, task: Task) -> list["Channel"]:
        return [
            channel
            for channel in self.device.channels.values()
            if not channel.dead and channel.task is task
        ]

    def tasks_holding_channels(self) -> set[Task]:
        return {
            channel.task
            for channel in self.device.channels.values()
            if not channel.dead
        }

    def cpu_time(self, duration_us: float, owner: str):
        """Consume CPU time (a generator): through the finite pool when
        one is configured, as a plain delay otherwise."""
        if self.cpu is not None:
            yield from self.cpu.execute(duration_us, owner)
        else:
            yield duration_us

    # ------------------------------------------------------------------
    # The request-submission path
    # ------------------------------------------------------------------
    def submit(self, task: Task, channel: "Channel", request: Request):
        """Submit a request from ``task`` (a generator; ``yield from`` it).

        Returns the request, now its own completion event.  Charges the
        direct-write cost, plus the full interception cost if the register
        page is protected; the scheduler may hold the task blocked inside
        the handler arbitrarily long (or forever, if the task gets killed
        while waiting).
        """
        request.request_id = next(self._request_ids)
        if self.faults is not None:
            lag = self.faults.arm(fault_points.KERNEL_SUBMIT_LATENCY, task.name)
            if lag is not None:
                yield lag.magnitude_us
        yield self.costs.direct_submit_us
        observed = False
        if channel.register_page.protected:
            observed = True
            self._faults.inc(task.name)
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now, "kernel", events.FAULT,
                    task=task.name, channel=channel.channel_id, ref=request.ref,
                )
            if self.faults is not None:
                dropped = self.faults.arm(
                    fault_points.KERNEL_FAULT_DROP, task.name
                )
                if dropped is not None:
                    # The first trap is lost: its CPU cost is paid for
                    # nothing and the store re-executes after the retry
                    # delay, trapping again below.
                    yield from self.cpu_time(self.costs.trap_us, task.name)
                    yield dropped.magnitude_us
                delayed = self.faults.arm(
                    fault_points.KERNEL_FAULT_DELAY, task.name
                )
                if delayed is not None:
                    yield delayed.magnitude_us
            yield from self.cpu_time(
                self.costs.trap_us + self.costs.fault_handle_us, task.name
            )
            wait_begin: Optional[float] = None
            while True:
                verdict = self.scheduler.on_fault(task, channel, request)
                if verdict is None:
                    break
                if wait_begin is None:
                    # Lazy: zero-wait faults (scheduler admits immediately)
                    # produce no wait span at all.
                    wait_begin = self.sim.now
                    if self.trace.enabled:
                        self.trace.emit(
                            wait_begin, "kernel", events.SCHED_WAIT_BEGIN,
                            task=task.name, channel=channel.channel_id,
                        )
                task.state = TaskState.BLOCKED
                yield verdict
                task.state = TaskState.RUNNING
                yield from self.cpu_time(self.costs.unblock_us, task.name)
            if wait_begin is not None and self.trace.enabled:
                self.trace.emit(
                    self.sim.now, "kernel", events.SCHED_WAIT_END,
                    task=task.name, channel=channel.channel_id,
                    waited_us=self.sim.now - wait_begin,
                )
            yield from self.cpu_time(self.costs.singlestep_us, task.name)
        if channel.dead or not task.alive:
            # Our context was torn down while we were blocked; the pending
            # ProcessKilled will arrive momentarily — wait for it.
            yield self.sim.event()
        self.device.submit(channel, request)
        if observed and self.scheduler is not None:
            self.scheduler.on_submit(task, channel, request)
        return request

    def submit_batch(self, task: Task, channel: "Channel", requests: list[Request]):
        """Submit back-to-back requests in one kick (a generator).

        The user library's batched doorbell path: on an *unprotected*
        channel the stores are issued consecutively — one combined
        direct-write cost, then a single hardware enqueue burst and one
        engine wake (``GpuDevice.submit_batch``).  On a protected channel
        every store faults individually, so the batch degrades to the
        per-request interception path; batching never bypasses the
        scheduler.  Returns the requests, their own completion events, in
        submission order.
        """
        if not requests:
            return []
        if channel.register_page.protected:
            for request in requests:
                yield from self.submit(task, channel, request)
            return requests
        if self.faults is not None:
            lag = self.faults.arm(fault_points.KERNEL_SUBMIT_LATENCY, task.name)
            if lag is not None:
                yield lag.magnitude_us
        yield self.costs.direct_submit_us * len(requests)
        if channel.dead or not task.alive:
            # Torn down while paying the submit cost; wait for the kill.
            yield self.sim.event()
        for request in requests:
            request.request_id = next(self._request_ids)
        return self.device.submit_batch(channel, requests)

    def submit_via_syscall(
        self, task: Task, channel: "Channel", request: Request, driver_work: bool
    ):
        """The Section 3 comparison stack: every request traps to the kernel
        (AMD-Catalyst-style), optionally with nontrivial driver-routine
        processing.  No scheduling — pure cost model.  Returns the request,
        its own completion event."""
        request.request_id = next(self._request_ids)
        cost = self.costs.syscall_us
        if driver_work:
            cost += self.costs.driver_work_us
        yield cost
        self.device.submit(channel, request)
        return request
