"""Streaming windowed metrics over the trace stream.

A :class:`WindowAggregator` subscribes to a :class:`~repro.sim.trace.
TraceRecorder` as a live sink (:meth:`TraceRecorder.add_sink`) and
maintains incremental per-tenant aggregates over tumbling or sliding
time windows:

* device shares — integrated from ``share_sample`` events the schedulers
  emit at engagement boundaries (episode settlement, slice end);
* engaged / disengaged channel-time — the interception layer's
  ``channel_engaged`` / ``channel_disengaged`` flips, replayed through
  the live ledger's :class:`~repro.obs.engagement.EngagementClock` and
  split at every bucket boundary;
* completion throughput and service time — from ``request_complete``;
* deterministic latency quantiles (p50/p95/p99) — the nearest-rank
  value of the window's observed ``latency_us``, reported at the upper
  edge of its ``latency_bin_us`` bin;
* per-window Jain's fairness index — reusing
  :func:`repro.metrics.fairness.jain_index` over the tenants' shares.

Windows are built from *slide*-width buckets kept in a bounded deque
(``window / slide`` of them).  Each bucket keeps the latencies it
observed, so memory is O(completions per window) regardless of run
length: ring-buffer eviction in the recorder never affects window
aggregates because sinks see the full stream.

Everything here is deterministic and import-free with respect to the
simulation: the aggregator consumes :class:`TraceRecord` values only, so
the same records produce bit-identical windows whether delivered live or
replayed from a buffer (see :func:`aggregate_trace` and the
streaming-sink equivalence tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.metrics.fairness import jain_index
from repro.obs import events
from repro.obs.engagement import EngagementClock
from repro.sim.trace import TraceRecord


def split_tenant(key: str) -> tuple[str, Optional[int]]:
    """Inverse of :func:`~repro.sim.trace.tenant_key`: ``name@dN`` ->
    (name, N); a bare name -> (name, None)."""
    name, sep, suffix = key.rpartition("@d")
    if sep and suffix.isdigit():
        return name, int(suffix)
    return key, None


def nearest_rank(values: list[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of a non-empty list: the
    ``max(1, ceil(q*n))``-th smallest value (no interpolation)."""
    return _ranked(sorted(values), q)


def _ranked(ordered: list[float], q: float) -> float:
    """:func:`nearest_rank` of an already sorted list."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _binned(ordered: list[float], q: float, bin_us: float) -> float:
    """Upper edge of the ``bin_us``-wide bin holding the nearest-rank
    ``q`` value of a sorted list (negative values fall in bin 0)."""
    return (max(0, int(_ranked(ordered, q) // bin_us)) + 1) * bin_us


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the streaming windows.

    ``slide_us is None`` gives tumbling windows (slide == window);
    otherwise the window must be an integer multiple of the slide.
    """

    window_us: float
    slide_us: Optional[float] = None
    #: Latency bin width; a quantile is reported as the upper edge of
    #: the bin holding the nearest-rank observation.
    latency_bin_us: float = 50.0

    def __post_init__(self) -> None:
        if self.window_us <= 0:
            raise ValueError("window_us must be > 0")
        slide = self.slide_us
        if slide is not None:
            if slide <= 0:
                raise ValueError("slide_us must be > 0")
            ratio = self.window_us / slide
            if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
                raise ValueError(
                    "window_us must be a positive integer multiple of slide_us"
                )
        if self.latency_bin_us <= 0:
            raise ValueError("latency_bin_us must be > 0")

    @property
    def effective_slide_us(self) -> float:
        return self.window_us if self.slide_us is None else self.slide_us

    @property
    def buckets_per_window(self) -> int:
        return int(round(self.window_us / self.effective_slide_us))


@dataclass
class TenantWindow:
    """One tenant's aggregates over one bucket (or one merged window)."""

    submits: int = 0
    completions: int = 0
    service_us: float = 0.0
    share_usage_us: float = 0.0
    engaged_us: float = 0.0
    disengaged_us: float = 0.0
    overuse_us: float = 0.0
    faults: int = 0
    denials: int = 0
    escalations: int = 0
    kills: int = 0
    #: Last virtual time observed for the tenant (``vt_update``); not
    #: additive — merged windows keep the most recent value.
    vt: Optional[float] = None
    #: Every completion's ``latency_us``, in record order.
    latencies: list[float] = field(default_factory=list)
    #: Their running total: ``+=`` per completion, then bucket totals in
    #: bucket order (``sum()`` would round differently on some Pythons).
    latency_total_us: float = 0.0

    def merge(self, other: "TenantWindow") -> None:
        self.submits += other.submits
        self.completions += other.completions
        self.service_us += other.service_us
        self.share_usage_us += other.share_usage_us
        self.engaged_us += other.engaged_us
        self.disengaged_us += other.disengaged_us
        self.overuse_us += other.overuse_us
        self.faults += other.faults
        self.denials += other.denials
        self.escalations += other.escalations
        self.kills += other.kills
        if other.vt is not None:
            self.vt = other.vt
        self.latencies += other.latencies
        self.latency_total_us += other.latency_total_us

    def latency_quantile(self, q: float, bin_us: float) -> Optional[float]:
        """Upper edge of the ``bin_us``-wide bin holding the nearest-rank
        ``q`` latency (negative values fall in bin 0): at most one bin
        above the exact value.  None before any completion."""
        if not self.latencies:
            return None
        return _binned(sorted(self.latencies), q, bin_us)

    def to_dict(self, span_us: float, bin_us: float) -> dict:
        out = {
            "submits": self.submits,
            "completions": self.completions,
            "service_us": self.service_us,
            "share_usage_us": self.share_usage_us,
            "engaged_us": self.engaged_us,
            "disengaged_us": self.disengaged_us,
            "overuse_us": self.overuse_us,
            "faults": self.faults,
            "denials": self.denials,
            "escalations": self.escalations,
            "kills": self.kills,
            "throughput_per_s": (
                self.completions / (span_us / 1e6) if span_us > 0 else 0.0
            ),
        }
        if self.vt is not None:
            out["vt"] = self.vt
        latencies = self.latencies
        if latencies:
            ordered = sorted(latencies)
            out["latency"] = {
                "count": len(latencies),
                "mean_us": self.latency_total_us / len(latencies),
                "p50_us": _binned(ordered, 0.50, bin_us),
                "p95_us": _binned(ordered, 0.95, bin_us),
                "p99_us": _binned(ordered, 0.99, bin_us),
                "max_us": ordered[-1],
            }
        return out


@dataclass
class _Bucket:
    start_us: float
    end_us: float
    tenants: dict[str, TenantWindow] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowSnapshot:
    """One closed window: merged tenant aggregates plus fairness."""

    index: int
    start_us: float
    end_us: float
    tenants: dict[str, TenantWindow]
    #: Jain's index over the active tenants' shares (NaN when nothing
    #: was attributable this window).
    jain: float
    #: Which per-tenant quantity the Jain computation used.
    share_basis: str
    #: Width of the bins latency quantiles are reported at.
    latency_bin_us: float
    partial: bool = False

    @property
    def span_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "partial": self.partial,
            "jain": None if math.isnan(self.jain) else self.jain,
            "share_basis": self.share_basis,
            "tenants": {
                name: self.tenants[name].to_dict(
                    self.span_us, self.latency_bin_us
                )
                for name in sorted(self.tenants)
            },
        }


#: The kinds the monitor emits back into the stream it watches: the
#: registry's ``obs`` layer (``window.*`` and ``slo.*``).
_MONITOR_KINDS = frozenset(
    spec.kind for spec in events.EVENT_KINDS.values() if spec.layer == "obs"
)


def _tally_complete(stats: TenantWindow, payload: dict) -> None:
    stats.completions += 1
    stats.service_us += payload.get("service_us", 0.0)
    latency = payload.get("latency_us")
    if latency is not None:
        stats.latencies.append(latency)
        stats.latency_total_us += latency


def _tally_submit(stats: TenantWindow, payload: dict) -> None:
    stats.submits += 1


def _tally_share(stats: TenantWindow, payload: dict) -> None:
    stats.share_usage_us += payload["usage_us"]


def _tally_vt(stats: TenantWindow, payload: dict) -> None:
    stats.vt = payload.get("vt")


def _tally_overuse(stats: TenantWindow, payload: dict) -> None:
    stats.overuse_us += payload.get("excess_us", 0.0)


def _tally_fault(stats: TenantWindow, payload: dict) -> None:
    stats.faults += 1


def _tally_denial(stats: TenantWindow, payload: dict) -> None:
    stats.denials += 1


def _tally_escalation(stats: TenantWindow, payload: dict) -> None:
    stats.escalations += 1


def _tally_kill(stats: TenantWindow, payload: dict) -> None:
    stats.kills += 1


#: The per-tenant window quantity each kind adds to.  Every other kind
#: only advances the window clock; channel flips, exits and kills also
#: feed the engagement clock.
_TALLIES = {
    events.REQUEST_COMPLETE: _tally_complete,
    events.REQUEST_SUBMIT: _tally_submit,
    events.SHARE_SAMPLE: _tally_share,
    events.VT_UPDATE: _tally_vt,
    events.OVERUSE_CHARGE: _tally_overuse,
    events.FAULT: _tally_fault,
    events.DENIAL: _tally_denial,
    events.FAULT_ESCALATED: _tally_escalation,
    events.TASK_KILLED: _tally_kill,
}


class WindowAggregator:
    """The live sink: consumes trace records, closes windows on time.

    Register with ``trace.add_sink(aggregator)``; records advance the
    window clock and update the current bucket.  Call :meth:`finish` at
    end of run to flush the final (possibly partial) window.  Closed
    windows are handed to every callback registered via
    :meth:`on_window`.
    """

    def __init__(self, config: WindowConfig, start_us: float = 0.0) -> None:
        self.config = config
        self.start_us = start_us
        slide = config.effective_slide_us
        self._bucket = _Bucket(start_us, start_us + slide)
        self._pending: list[_Bucket] = []
        self._engagement = EngagementClock(self._tenant)
        self._callbacks: list[Callable[[WindowSnapshot], None]] = []
        self.windows_closed = 0
        self.snapshots: list[WindowSnapshot] = []
        #: Retain at most this many closed snapshots (None = unbounded);
        #: long-running monitors cap it to keep memory flat.
        self.keep_snapshots: Optional[int] = None
        self._finished = False

    def on_window(
        self, callback: Callable[[WindowSnapshot], None]
    ) -> Callable[[WindowSnapshot], None]:
        self._callbacks.append(callback)
        return callback

    @property
    def open_bucket_start_us(self) -> float:
        """Start of the bucket records currently land in."""
        return self._bucket.start_us

    # -- sink protocol -------------------------------------------------
    def __call__(self, record: TraceRecord) -> None:
        kind = record.kind
        # Never consume our own monitor output (re-entrant emits).
        if kind in _MONITOR_KINDS:
            return
        if record.time >= self._bucket.end_us:
            self._advance(record.time)
        self._engagement.observe(record)
        tally = _TALLIES.get(kind)
        tenant = record.tenant
        if tally is not None and tenant is not None:
            tally(self._tenant(tenant), record.payload)

    # -- time machinery ------------------------------------------------
    def _advance(self, now: float) -> None:
        while now >= self._bucket.end_us:
            self._close_bucket(self._bucket.end_us)

    def _close_bucket(self, boundary: float) -> None:
        # Split every running channel clock at the bucket boundary.
        self._engagement.settle(boundary)
        self._pending.append(self._bucket)
        slide = self.config.effective_slide_us
        self._bucket = _Bucket(boundary, boundary + slide)
        k = self.config.buckets_per_window
        if len(self._pending) > k:
            del self._pending[0]
        if len(self._pending) == k:
            self._emit_window(self._pending, partial=False)

    def _emit_window(self, buckets: list[_Bucket], partial: bool) -> None:
        merged: dict[str, TenantWindow] = {}
        for bucket in buckets:
            for name, stats in bucket.tenants.items():
                into = merged.get(name)
                if into is None:
                    into = merged[name] = TenantWindow()
                into.merge(stats)
        shares = {
            name: stats.share_usage_us
            for name, stats in merged.items()
            if stats.share_usage_us > 0
        }
        basis = "share_usage_us"
        if not shares:
            shares = {
                name: stats.service_us
                for name, stats in merged.items()
                if stats.service_us > 0
            }
            basis = "service_us"
        snapshot = WindowSnapshot(
            index=self.windows_closed,
            start_us=buckets[0].start_us,
            end_us=buckets[-1].end_us,
            tenants=merged,
            jain=jain_index(shares.values()),
            share_basis=basis,
            latency_bin_us=self.config.latency_bin_us,
            partial=partial,
        )
        self.windows_closed += 1
        self.snapshots.append(snapshot)
        if (
            self.keep_snapshots is not None
            and len(self.snapshots) > self.keep_snapshots
        ):
            del self.snapshots[0]
        for callback in self._callbacks:
            callback(snapshot)

    def finish(self, end_us: float) -> None:
        """Flush: close every full window up to ``end_us``, then a final
        partial window covering whatever remains.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        self._advance(end_us)
        bucket = self._bucket
        if end_us > bucket.start_us:
            self._engagement.settle(end_us)
            partial = _Bucket(bucket.start_us, end_us, bucket.tenants)
            tail = (self._pending + [partial])[-self.config.buckets_per_window:]
            self._emit_window(tail, partial=True)
        elif self._pending and self.windows_closed == 0:
            # Run shorter than one window: report what we have.
            self._emit_window(list(self._pending), partial=True)

    # -- record dispatch -----------------------------------------------
    def _tenant(self, name: str) -> TenantWindow:
        stats = self._bucket.tenants.get(name)
        if stats is None:
            stats = self._bucket.tenants[name] = TenantWindow()
        return stats


def aggregate_trace(
    records: Iterable[TraceRecord],
    config: WindowConfig,
    start_us: float = 0.0,
    end_us: Optional[float] = None,
) -> list[WindowSnapshot]:
    """Replay recorded (or imported) records through a fresh aggregator.

    Produces exactly the snapshots a live sink would have produced for
    the same stream — the property the streaming-sink equivalence test
    pins.  ``end_us`` defaults to the last record's time.
    """
    aggregator = WindowAggregator(config, start_us=start_us)
    last = start_us
    for record in records:
        aggregator(record)
        last = record.time
    aggregator.finish(last if end_us is None else end_us)
    return aggregator.snapshots
