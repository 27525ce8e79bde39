"""Observed (not ground-truth) request statistics.

Everything here is built from events the interception layer can legally
see: fault-time submissions, polled completions, and ring-buffer scans.
The Disengaged Fair Queueing scheduler feeds sampling-period observations
into a :class:`RequestSizeEstimator` per channel and uses the resulting
averages as its resource-usage proxy (Section 3.3's software mechanism).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Optional

#: Request-size prior (µs) for a channel with no observations yet.
DEFAULT_SIZE_GUESS_US = 100.0


class ChannelKind(enum.Enum):
    """Engine class of a channel, as learned at discovery time.

    This is the *observation-level* twin of the device's request-kind
    enum: NEON's initialization state machine classifies each channel
    while mapping its three VMAs (Section 4), so the kind is legitimate
    scheduler knowledge.  Schedulers import this — never
    ``repro.gpu.request.RequestKind`` — keeping the disengagement
    boundary import-clean (enforced by neonlint rule NEON101).
    """

    COMPUTE = "compute"
    GRAPHICS = "graphics"
    DMA = "dma"


class RequestSizeEstimator:
    """Windowed average of observed request service times for one channel."""

    def __init__(self, window: int = 128) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._samples: deque[float] = deque(maxlen=window)
        self.total_observed = 0

    def record(self, service_us: float) -> None:
        if service_us < 0:
            raise ValueError("negative service time")
        self._samples.append(service_us)
        self.total_observed += 1

    @property
    def mean(self) -> Optional[float]:
        """Mean observed size, or None before any observation."""
        if not self._samples:
            return None
        return sum(self._samples) / len(self._samples)

    @property
    def sample_count(self) -> int:
        return len(self._samples)


class ObservedServiceMeter:
    """Estimates request service times from polled completion times.

    ``service ≈ observe_time − max(submit_time, previous observation on the
    same channel)`` — the same estimator DFQ sampling uses.  Owned by
    :class:`~repro.core.engaged.EngagedScheduler`, the skeleton of the
    per-request baselines, which watches every request's completion.
    """

    def __init__(self) -> None:
        self._last_observed: dict[int, float] = {}
        self._global_last = 0.0

    def measure(self, channel_id: int, submit_time: float, observe_time: float) -> float:
        # The main engine serializes requests, so any completion observed
        # on *any* watched channel bounds when this request can have
        # started — without it, time spent queued behind other channels
        # would be misattributed as service.
        busy_since = max(
            submit_time,
            self._global_last,
            self._last_observed.get(channel_id, 0.0),
        )
        self._last_observed[channel_id] = observe_time
        self._global_last = max(self._global_last, observe_time)
        return max(observe_time - busy_since, 0.05)


class ChannelObservations:
    """Everything the scheduler has legally observed about one channel."""

    def __init__(
        self,
        channel_id: int,
        kind: Optional[ChannelKind] = None,
        window: int = 128,
    ) -> None:
        self.channel_id = channel_id
        #: Engine class recorded by discovery (None if never classified).
        #: Named ``channel_kind`` — not ``kind`` — so it never collides
        #: with the device-side attribute neonlint forbids (NEON102).
        self.channel_kind = kind
        self.sizes = RequestSizeEstimator(window)
        #: Last submitted reference number seen at a re-engagement scan.
        self.last_scanned_ref = 0
        #: Reference counter value at the previous engagement, used to count
        #: how many requests completed during a free-run period.
        self.ref_at_last_engagement = 0

    def completed_since_last_engagement(self, refcounter: int) -> int:
        """Requests that finished since the previous engagement scan."""
        return max(0, refcounter - self.ref_at_last_engagement)

    def mark_engagement(self, refcounter: int) -> None:
        self.ref_at_last_engagement = refcounter
