"""The Throttle microbenchmark (Section 5.1).

Makes repetitive blocking compute requests of a user-specified size, with
optional idle ("off") time between requests to model nonsaturating
workloads.  A round is one request; recorded round times exclude the
deliberate sleep, so slowdown measures scheduling delay only.
"""

from __future__ import annotations

from typing import Optional

from repro.gpu.request import RequestKind
from repro.workloads.base import Workload


class Throttle(Workload):
    """Controlled, saturating-or-not request generator."""

    def __init__(
        self,
        request_size_us: float,
        sleep_ratio: float = 0.0,
        name: Optional[str] = None,
        kind: RequestKind = RequestKind.COMPUTE,
        jitter_sigma: float = 0.0,
        submit_mode: str = Workload.submit_mode,
    ) -> None:
        if request_size_us <= 0:
            raise ValueError("request size must be positive")
        if not 0.0 <= sleep_ratio < 1.0:
            raise ValueError("sleep ratio must be in [0, 1)")
        label = name or f"throttle-{request_size_us:g}us"
        super().__init__(label)
        self.request_size_us = request_size_us
        self.sleep_ratio = sleep_ratio
        self.kind = kind
        self.jitter_sigma = jitter_sigma
        self.submit_mode = submit_mode

    @property
    def sleep_us(self) -> float:
        """Idle time per request achieving the configured off ratio."""
        if self.sleep_ratio == 0.0:
            return 0.0
        return self.request_size_us * self.sleep_ratio / (1.0 - self.sleep_ratio)

    def body(self):
        channel = self.open_channel(self.kind)
        while True:
            start = self.sim.now
            size = (
                self.jittered(self.request_size_us, self.jitter_sigma)
                if self.jitter_sigma > 0
                else self.request_size_us
            )
            yield from self.submit(channel, size)
            self.rounds.record(start, self.sim.now)
            if self.sleep_us > 0:
                yield self.sleep_us
