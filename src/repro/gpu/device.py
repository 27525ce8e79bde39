"""The accelerator device: contexts, channels, engines, and accounting."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Optional

from repro.errors import OutOfResourcesError
from repro.faults import registry as fault_points
from repro.gpu.channel import Channel
from repro.gpu.context import GpuContext
from repro.gpu.engine import ExecutionEngine
from repro.gpu.memory import GpuMemory
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import NullRecorder, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.osmodel.task import Task
    from repro.sim.engine import Simulator


class GpuDevice:
    """The modeled accelerator.

    Exposes the hardware-software interface the paper's schedulers rely on
    (channels with ring buffers and reference counters) and keeps
    ground-truth usage accounting for metrics and for the vendor-statistics
    ablations.  Scheduler implementations must go through the
    :mod:`repro.neon` interception layer instead of reading ground truth;
    see DESIGN.md's observability discipline.
    """

    def __init__(
        self,
        sim: "Simulator",
        params: Optional[GpuParams] = None,
        trace: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.params = params or GpuParams()
        self.params.validate()
        self.trace = trace if trace is not None else NullRecorder()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Optional fault injector (repro.faults); None means no plan is
        #: installed and every injection site is a single attribute check.
        self.faults = faults
        # Hot-path instruments, resolved once (submit/retire run per request).
        self._submits = self.metrics.counter("submits")
        self.latencies = self.metrics.samples("request_latency_us")
        main_kinds = {RequestKind.COMPUTE, RequestKind.GRAPHICS}
        if not self.params.separate_copy_engine:
            main_kinds.add(RequestKind.DMA)
        self.main_engine = ExecutionEngine(
            sim, "main", self.params, frozenset(main_kinds), self
        )
        self.copy_engine: Optional[ExecutionEngine] = None
        if self.params.separate_copy_engine:
            self.copy_engine = ExecutionEngine(
                sim, "copy", self.params, frozenset({RequestKind.DMA}), self
            )
        self.contexts: list[GpuContext] = []
        self.channels: dict[int, Channel] = {}
        self.memory = GpuMemory(self.params.memory_mib)
        #: Ground-truth per-task engine microseconds (metrics/ablations only).
        self._usage: dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Resource allocation (the Section 6.3 protection surface)
    # ------------------------------------------------------------------
    def create_context(self, task: "Task") -> GpuContext:
        """Open a device context for ``task``.

        Raises :class:`OutOfResourcesError` when the device-wide context
        limit is reached — the channel-exhaustion DoS of Section 6.3.
        """
        if self.live_context_count >= self.params.max_contexts:
            raise OutOfResourcesError(
                f"device supports at most {self.params.max_contexts} contexts"
            )
        context = GpuContext(task, next(self.sim.id_counter("context")))
        self.contexts.append(context)
        task.contexts.append(context)
        return context

    def create_channel(self, context: GpuContext, kind: RequestKind) -> Channel:
        """Open a channel of the given kind inside ``context``."""
        if context.dead:
            raise RuntimeError("cannot create a channel in a dead context")
        if self.live_channel_count >= self.params.total_channels:
            raise OutOfResourcesError(
                f"device supports at most {self.params.total_channels} channels"
            )
        channel = Channel(context, kind, next(self.sim.id_counter("channel")))
        context.add_channel(channel)
        self.channels[channel.channel_id] = channel
        self._engine_for(kind).register_channel(channel)
        return channel

    @property
    def live_context_count(self) -> int:
        return sum(1 for context in self.contexts if not context.dead)

    @property
    def live_channel_count(self) -> int:
        return sum(1 for channel in self.channels.values() if not channel.dead)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, channel: Channel, request: Request) -> Request:
        """Hardware-side submission: enqueue and kick the engine.

        Returns the request, now the completion event the submitter (or the
        scheduler) may wait on.  This models the doorbell write having
        reached the device; all software-side costs (MMIO write, faults)
        are charged by the kernel model before calling this.
        """
        self._enqueue_one(channel, request)
        self._engine_for(channel.kind).notify()
        return request

    def submit_batch(self, channel: Channel, requests: list[Request]) -> list[Request]:
        """Enqueue back-to-back requests on one channel, kicking the engine
        once.

        The batched doorbell path: all requests land on the ring buffer at
        the current instant and the engine is notified with a *single*
        wake event, instead of one notify per request.  Returns the
        requests (their own completion events) in submission order.
        """
        for request in requests:
            self._enqueue_one(channel, request)
        if requests:
            self._engine_for(channel.kind).notify()
        return requests

    def _enqueue_one(self, channel: Channel, request: Request) -> None:
        """Shared per-request hardware-side submission (no engine kick)."""
        request.bind(self.sim)
        if self.faults is not None:
            if self.faults.arm(fault_points.GPU_REQUEST_HANG, channel.task.name):
                # The engine will start this request and never finish it.
                request.size_us = math.inf
                request.remaining_us = math.inf
        channel.enqueue(request, self.sim.now)
        if self.faults is not None:
            if self.faults.arm(
                fault_points.GPU_SPURIOUS_COMPLETION, channel.task.name
            ):
                # The counter jumps past work still in flight, so scans
                # and drains observe completions that never happened.
                channel.advance_refcounter(channel.last_submitted_ref)
        self._submits.inc(channel.task.name)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now,
                "gpu.device",
                events.REQUEST_SUBMIT,
                task=channel.task.name,
                channel=channel.channel_id,
                ref=request.ref,
                size_us=request.size_us,
                # The member's value attribute: the ``value`` property
                # costs more than the rest of this payload.
                request_kind=request.kind._value_,
            )

    def _engine_for(self, kind: RequestKind) -> ExecutionEngine:
        if kind is RequestKind.DMA and self.copy_engine is not None:
            return self.copy_engine
        return self.main_engine

    # ------------------------------------------------------------------
    # Context kill (the Section 3.1 protection mechanism)
    # ------------------------------------------------------------------
    def kill_context(self, context: GpuContext) -> None:
        """Abort and clean up a context (runaway-request protection).

        Models the driver's exit protocol: the running request (if any) is
        aborted, queued requests are discarded, channels are closed, and the
        engine stalls for the cleanup cost.
        """
        if context.dead:
            return
        context.dead = True
        for engine in self.engines:
            engine.abort_current(context)
            if self.trace.enabled:
                # context_killed closes every span of the task, those of
                # its other contexts too.
                engine.announce_task(context.task)
        for channel in context.channels:
            casualties = channel.discard_queued()
            channel.dead = True
            channel.advance_refcounter(channel.last_submitted_ref)
            self._engine_for(channel.kind).unregister_channel(channel)
            for request in casualties:
                if not request.triggered:
                    request.trigger(request)
        self.memory.release_context(context)
        self.main_engine.inject_stall(self.params.context_cleanup_us)
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "gpu.device", events.CONTEXT_KILLED,
                task=context.task.name,
            )

    # ------------------------------------------------------------------
    # Status and accounting
    # ------------------------------------------------------------------
    @property
    def engines(self) -> list[ExecutionEngine]:
        if self.copy_engine is not None:
            return [self.main_engine, self.copy_engine]
        return [self.main_engine]

    @property
    def idle(self) -> bool:
        """Ground-truth idleness (metrics only; schedulers must poll)."""
        return all(engine.idle for engine in self.engines)

    def charge(self, task: "Task", service_us: float) -> None:
        """Record ground-truth usage (called by engines on retirement)."""
        self._usage[task.task_id] += service_us

    def task_usage(self, task: "Task") -> float:
        """Ground-truth cumulative engine time consumed by ``task`` (µs)."""
        return self._usage[task.task_id]

    @property
    def total_busy_us(self) -> float:
        return sum(engine.busy_us for engine in self.engines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GpuDevice(contexts={self.live_context_count}, "
            f"channels={self.live_channel_count})"
        )
