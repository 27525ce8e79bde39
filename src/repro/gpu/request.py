"""Acceleration requests — the unit of work submitted to a channel."""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Optional

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.sim.engine import Simulator


class RequestKind(enum.Enum):
    """The engine class a request executes on."""

    COMPUTE = "compute"
    GRAPHICS = "graphics"
    DMA = "dma"


class Request(Event):
    """One request as seen at the hardware/software interface.

    ``size_us`` is the GPU service time the request will consume;
    ``math.inf`` models a malicious/buggy request that never completes
    (Section 3.1's denial-of-service scenario).

    A request's ``ref`` is the per-channel reference-counter value the
    hardware writes upon its completion — the completion-detection handle
    both the user-level library and the NEON polling service rely on.

    A request is its own completion :class:`~repro.sim.events.Event`, as
    in the hardware it is its own counter write, not a second object: the
    device binds it to the simulator at enqueue (:meth:`bind`) and
    triggers it, with itself as the value, once the completion is
    published (or the request is discarded by a context kill).  Before
    enqueue it is unbound and :attr:`completion` is ``None``.
    """

    __slots__ = (
        "request_id",
        "kind",
        "size_us",
        "remaining_us",
        "blocking",
        "channel",
        "ref",
        "submit_time",
        "start_time",
        "finish_time",
        "aborted",
        "preemptions",
    )

    def __init__(
        self,
        kind: RequestKind,
        size_us: float,
        blocking: bool = True,
    ) -> None:
        if size_us < 0:
            raise ValueError(f"request size must be non-negative: {size_us}")
        #: Assigned by the kernel at submission, from its simulator's
        #: ``"request"`` id counter; 0 until then.
        self.request_id = 0
        self.kind = kind
        self.size_us = float(size_us)
        #: Unserved work; shrinks across preempted execution segments.
        self.remaining_us = float(size_us)
        self.blocking = blocking
        self.preemptions = 0
        # Assigned at submission:
        self.channel: Optional["Channel"] = None
        self.ref: Optional[int] = None
        self.submit_time: Optional[float] = None
        # Assigned at service:
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.aborted = False
        # The Event state, set here and in bind() instead of through
        # Event.__init__: the waiter list is built only at enqueue.
        self.sim: Optional["Simulator"] = None
        self.triggered = False
        self.value = None

    def bind(self, sim: "Simulator") -> None:
        """Make the request a live completion event of ``sim`` (at enqueue)."""
        self.sim = sim
        self._callbacks = []

    @property
    def completion(self) -> Optional["Request"]:
        """The completion event to wait on: the request itself once
        enqueued, ``None`` before."""
        return self if self.sim is not None else None

    @property
    def never_completes(self) -> bool:
        """True for infinite (runaway) requests."""
        return math.isinf(self.size_us)

    @property
    def service_time(self) -> Optional[float]:
        """Actual engine time consumed, once finished or aborted."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"ch{self.channel.channel_id}" if self.channel else "unsubmitted"
        return (
            f"Request(#{self.request_id}, {self.kind.value}, "
            f"{self.size_us:.1f}us, {where})"
        )
