"""The engaged per-request skeleton of the related-work baselines (§2).

Start-time fair queueing, deficit round-robin (GERM) and the credit
scheduler (Gdev) are always engaged: every register page stays protected,
every request faults into the kernel and every completion is watched —
the per-request cost the disengaged designs eliminate.
:class:`EngagedScheduler` owns that machinery once: engagement when a
channel is tracked, the completion-polling interval, the observed-service
meter, per-channel request-size estimates and the bookkeeping of held
requests.  A policy supplies only its rules, on two hooks:

* :meth:`~EngagedScheduler.admit` — let a faulting request through
  (``None``), park its task on the waiter ledger
  (:meth:`~repro.core.base.SchedulerBase.add_waiter`, re-admitted when
  woken), or :meth:`~EngagedScheduler.hold` the request until the
  policy's order rule :meth:`~EngagedScheduler.release`\\ s it;
* :meth:`~EngagedScheduler.charge` — account one completed request's
  observed service time.

A policy sees tasks, channels, observed service times and opaque
:class:`HeldRequest` handles, never a :class:`~repro.gpu.request.Request`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import SchedulerBase
from repro.neon.stats import (
    DEFAULT_SIZE_GUESS_US,
    ObservedServiceMeter,
    RequestSizeEstimator,
)
from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.request import Request
    from repro.osmodel.task import Task
    from repro.sim.events import Event


class HeldRequest:
    """Opaque handle on a faulted request a policy may hold back."""

    __slots__ = ("_request_id", "_wake")

    def __init__(self, request_id: int) -> None:
        self._request_id = request_id
        self._wake: Optional["Event"] = None


class EngagedScheduler(SchedulerBase):
    """Per-request engagement; subclasses supply the admit and charge rules."""

    @property
    def completion_poll_us(self) -> float:
        """Completion-observation period (µs): the cost model's sampling
        poll interval unless a policy pins its own class constant."""
        return self.costs.sampling_poll_interval_us

    def setup(self) -> None:
        # Per-request schedulers need fine completion observation (the
        # role interrupts play in the systems the paper cites); pay the
        # CPU cost.
        self.kernel.polling.set_interval(self.completion_poll_us)
        self._meter = ObservedServiceMeter()
        self._sizes: dict[int, RequestSizeEstimator] = {}
        #: Request id -> completion event (or None) of each request
        #: released from a hold and not yet submitted.
        self._released: dict[int, Optional["Event"]] = {}

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    def on_channel_tracked(self, channel: "Channel") -> None:
        self.neon.engage_channel(channel)
        self._sizes[channel.channel_id] = RequestSizeEstimator()

    def on_fault(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> Optional["Event"]:
        request_id = request.request_id
        if request_id in self._released:
            return None  # released from a hold by the order rule
        return self.admit(task, channel, HeldRequest(request_id))

    def on_submit(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> None:
        done = self._released.pop(request.request_id, None)
        submit_time = self.sim.now

        def on_completion(observed: "Channel") -> None:
            service = self._meter.measure(
                observed.channel_id, submit_time, self.sim.now
            )
            estimator = self._sizes.get(observed.channel_id)
            if estimator is not None:
                estimator.record(service)
            self.charge(task, observed, service)
            if done is not None and not done.triggered:
                done.trigger()

        self.kernel.polling.watch(channel, request.ref, on_completion)

    # ------------------------------------------------------------------
    # Policy rules
    # ------------------------------------------------------------------
    def admit(
        self, task: "Task", channel: "Channel", held: HeldRequest
    ) -> Optional["Event"]:
        """A request of ``task`` faulted: ``None`` lets it through, an
        event makes it wait (see the module docstring)."""
        return None

    def charge(self, task: "Task", channel: "Channel", service_us: float) -> None:
        """A request of ``task`` completed after ``service_us`` of
        observed device time."""

    # ------------------------------------------------------------------
    # Shared machinery
    # ------------------------------------------------------------------
    def hold(self, held: HeldRequest) -> "Event":
        """Hold a faulted request until :meth:`release`; return the event
        its task waits on."""
        held._wake = self.sim.event()
        return held._wake

    def release(self, held: HeldRequest, done: Optional["Event"] = None) -> None:
        """Let a held request through; ``done`` fires when its completion
        is observed."""
        self._released[held._request_id] = done
        if not held._wake.triggered:
            held._wake.trigger()

    def emit_release(self, task: "Task", **detail) -> None:
        """Count one dispatch decision for ``task``."""
        self.kernel.metrics.inc("releases", task.name)
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.REQUEST_RELEASED,
                task=task.name, **detail,
            )

    def size_estimate(self, channel: "Channel") -> float:
        """Mean observed request size on ``channel`` (µs), or the prior."""
        estimator = self._sizes.get(channel.channel_id)
        if estimator is None or estimator.mean is None:
            return DEFAULT_SIZE_GUESS_US
        return estimator.mean
