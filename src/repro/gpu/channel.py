"""Channels — the user-mapped request queues of the device.

Each channel bundles the three virtual memory areas NEON's initialization
phase identifies (Section 4): the *command buffer* where requests are
constructed, the *ring buffer* holding pointers to consecutive requests,
and the *channel register* (doorbell) whose page can be protected for
interception.  For scheduling purposes the command and ring buffers
collapse into an ordered queue of :class:`~repro.gpu.request.Request`
objects plus the metadata a kernel-side scan can recover: the reference
number of the last submitted request and the reference counter the
hardware bumps on each completion.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.gpu.request import Request, RequestKind
from repro.osmodel.pagetable import RegisterPage

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.context import GpuContext
    from repro.osmodel.task import Task


class Channel:
    """One hardware request queue owned by a single context/task."""

    def __init__(
        self, context: "GpuContext", kind: RequestKind, channel_id: int
    ) -> None:
        self.channel_id = channel_id
        self.context = context
        #: The owning task (a context never changes hands).
        self.task: "Task" = context.task
        self.kind = kind
        self.register_page = RegisterPage(self.channel_id)
        #: Requests submitted but not yet started by the engine.
        self.queue: deque[Request] = deque()
        #: Reference number assigned to the most recently submitted request;
        #: recoverable by the kernel via a command-buffer scan.
        self.last_submitted_ref = 0
        #: Reference counter the hardware writes on completion; readable by
        #: anyone who maps the page (user library, kernel polling thread).
        self.refcounter = 0
        self.submitted_count = 0
        self.completed_count = 0
        #: The request currently executing on an engine, if any.
        self.running: Optional[Request] = None
        self.dead = False
        #: Runlist masking (requires hardware preemption support): a masked
        #: channel's queued work is invisible to the engine until unmasked.
        self.masked = False
        #: Polling services with at least one active watch on this channel;
        #: every refcounter advance notifies them so quiescent channels can
        #: be skipped by their passes (see repro.osmodel.polling).
        self._pollers: list = []

    @property
    def pending(self) -> int:
        """Requests submitted but not completed (queued + running)."""
        return len(self.queue) + (1 if self.running is not None else 0)

    @property
    def drained(self) -> bool:
        """True when every submitted request has completed.

        This is exactly the reference-counter test NEON performs after
        re-engagement: the counter has caught up with the last submitted
        reference number.
        """
        return self.refcounter >= self.last_submitted_ref

    def enqueue(self, request: Request, now: float) -> None:
        """Append a request to the ring buffer (hardware-side effect)."""
        if self.dead:
            raise RuntimeError(f"submit on dead channel {self.channel_id}")
        if request.kind is not self.kind:
            raise ValueError(
                f"{request.kind.value} request on {self.kind.value} channel"
            )
        self.last_submitted_ref += 1
        self.submitted_count += 1
        request.channel = self
        request.ref = self.last_submitted_ref
        request.submit_time = now
        self.queue.append(request)

    def complete(self, request: Request) -> None:
        """Hardware completion: bump the reference counter."""
        ref = request.ref
        if ref is None:  # pragma: no cover - defensive
            raise RuntimeError("completing a request that was never enqueued")
        if ref > self.refcounter:
            self.refcounter = ref
            for poller in self._pollers:
                poller.mark_dirty(self)
        self.completed_count += 1

    def discard_queued(self) -> list[Request]:
        """Drop all queued requests (context kill); returns the casualties.

        The reference counter is advanced past the dropped requests so the
        channel reads as drained — modeling the driver's exit protocol
        returning the channel to a clean state.
        """
        casualties = list(self.queue)
        self.queue.clear()
        for request in casualties:
            request.aborted = True
        if self.running is None:
            self.advance_refcounter(self.last_submitted_ref)
        return casualties

    def advance_refcounter(self, value: int) -> None:
        """Move the reference counter forward (hardware-side write).

        All counter writes funnel through here (or :meth:`complete`'s
        inlined equivalent) so watching polling services learn the channel
        has progressed; the counter never moves backwards.
        """
        if value > self.refcounter:
            self.refcounter = value
            for poller in self._pollers:
                poller.mark_dirty(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel(#{self.channel_id}, {self.kind.value}, "
            f"task={self.task.name}, pending={self.pending})"
        )
