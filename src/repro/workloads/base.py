"""Workload base class.

A workload owns one :class:`~repro.osmodel.task.Task` and a generator
``body`` that submits requests through the kernel, paying the appropriate
virtual-time costs.  It records round boundaries (for the paper's
user-visible performance metric) and keeps the submitted requests for
post-run statistics (Table 1, Figure 2).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Optional

import math

from repro.errors import OutOfResourcesError
from repro.gpu.request import Request, RequestKind
from repro.metrics.rounds import RoundLog, RoundStats
from repro.sim.process import ProcessKilled

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.osmodel.kernel import Kernel
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngRegistry

#: The request kinds Table 1's request sizes cover (DMA is excluded).
_TABLE1_KINDS = (RequestKind.COMPUTE, RequestKind.GRAPHICS)


class Workload:
    """Base class for all workload models."""

    #: How requests reach the device: "mmio" (direct-mapped interface,
    #: possibly intercepted), "syscall" (trap per request, Section 3's
    #: comparison stack), or "syscall+driver" (trap plus nontrivial driver
    #: routine work).
    submit_mode = "mmio"

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None
        self.kernel: Optional["Kernel"] = None
        self.task = None
        self.rounds = RoundLog()
        self.requests: list[Request] = []
        self.killed = False
        self.setup_error: Optional[Exception] = None
        self._pipelines: dict[int, deque] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, sim: "Simulator", kernel: "Kernel", rng: "RngRegistry") -> None:
        """Create the task and spawn the workload body."""
        self.sim = sim
        self.kernel = kernel
        self.rng = rng.stream(f"workload.{self.name}")
        self._normals = rng.normals(f"workload.{self.name}")
        self.task = kernel.create_task(self.name)
        self.task.workload = self
        self.task.process = sim.spawn(self._run(), name=f"task.{self.name}")

    def _run(self):
        try:
            yield from self.body()
        except ProcessKilled:
            self.killed = True
            return
        except OutOfResourcesError as error:
            # A real application would die with an allocation error; record
            # it so experiments can observe the lock-out (Section 6.3).
            self.setup_error = error
        self.kernel.exit_task(self.task)

    def body(self):
        """The workload's behaviour; subclasses must implement (generator)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Submission helpers
    # ------------------------------------------------------------------
    def open_channel(self, kind: RequestKind, context=None) -> "Channel":
        """Open (and lazily create) a context plus one channel."""
        if context is None:
            if not self.task.contexts:
                self.kernel.open_context(self.task)
            context = self.task.contexts[0]
        return self.kernel.open_channel(self.task, context, kind)

    def submit(self, channel: "Channel", size_us: float, blocking: bool = True):
        """Submit one request; when blocking, waits for its completion.

        A generator — drive with ``yield from``.  Returns the request, its
        own completion event (already triggered for blocking requests).
        """
        request = Request(channel.kind, size_us, blocking)
        self.requests.append(request)
        if self.submit_mode == "mmio":
            yield from self.kernel.submit(self.task, channel, request)
        else:
            driver_work = self.submit_mode == "syscall+driver"
            yield from self.kernel.submit_via_syscall(
                self.task, channel, request, driver_work
            )
        if blocking:
            yield request
        return request

    def submit_burst(self, channel: "Channel", sizes_us: list):
        """Submit a burst of non-blocking requests as one batch.

        A generator — drive with ``yield from``.  Uses the kernel's
        batched doorbell path, so the back-to-back enqueues coalesce into
        a single engine wake event.  Returns the requests, their own
        completion events, in submission order.
        """
        requests = [Request(channel.kind, size_us, False) for size_us in sizes_us]
        self.requests.extend(requests)
        yield from self.kernel.submit_batch(self.task, channel, requests)
        return requests

    def submit_pipelined(self, channel: "Channel", size_us: float, depth: int):
        """Submit a non-blocking request, bounding outstanding ones.

        Models the user-level library's asynchronous pipelining: up to
        ``depth`` requests per channel may be in flight; beyond that the
        submitter waits for the oldest.
        """
        pipeline = self._pipelines.setdefault(channel.channel_id, deque())
        while len(pipeline) >= depth:
            oldest = pipeline.popleft()
            if not oldest.triggered:
                yield oldest
        request = yield from self.submit(channel, size_us, blocking=False)
        pipeline.append(request)
        return request

    def drain_pipeline(self, channel: Optional["Channel"] = None):
        """Wait for all in-flight pipelined requests (one channel or all)."""
        if channel is not None:
            pipelines = [self._pipelines.get(channel.channel_id, deque())]
        else:
            pipelines = list(self._pipelines.values())
        for pipeline in pipelines:
            while pipeline:
                oldest = pipeline.popleft()
                if not oldest.triggered:
                    yield oldest

    def cpu_work(self, duration_us: float):
        """Consume CPU time (think/compute); contends for cores when the
        kernel is configured with a finite pool (a generator).

        Without a pool the delay is yielded here directly, as
        :meth:`Kernel.cpu_time <repro.osmodel.kernel.Kernel.cpu_time>`
        would, minus its generator frame per think gap."""
        if duration_us <= 0:
            return
        cpu = self.kernel.cpu
        if cpu is None:
            yield duration_us
        else:
            yield from cpu.execute(duration_us, self.name)

    def jittered(self, mean_us: float, sigma: float = 0.08) -> float:
        """A mean-preserving lognormal jitter around ``mean_us``."""
        if mean_us <= 0 or sigma <= 0:
            return max(mean_us, 0.0)
        # Batched standard normals scaled by sigma: bit-identical to
        # ``self.rng.normal(0.0, sigma)`` one call at a time, without the
        # per-draw numpy dispatch (see repro.sim.rng.BatchedNormals).
        draw = self._normals.draw() * sigma
        return mean_us * math.exp(draw - sigma * sigma / 2.0)

    # ------------------------------------------------------------------
    # Post-run statistics
    # ------------------------------------------------------------------
    def round_stats(
        self, warmup_us: float = 0.0, until_us: Optional[float] = None
    ) -> RoundStats:
        return self.rounds.stats(warmup_us, until_us)

    def mean_request_size(self, kinds: Optional[Iterable] = None) -> float:
        """Mean submitted request size (µs), optionally filtered by kind.

        DMA requests are excluded by default, matching Table 1's
        compute/graphics request sizes.
        """
        # A tuple, not a set: membership then matches members by identity
        # instead of hashing an enum member (a Python-level call) per request.
        kinds = _TABLE1_KINDS if kinds is None else tuple(kinds)
        sizes = [
            request.size_us
            for request in self.requests
            if request.kind in kinds and not math.isinf(request.size_us)
        ]
        if not sizes:
            return float("nan")
        return sum(sizes) / len(sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, rounds={len(self.rounds)})"
