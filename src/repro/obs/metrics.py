"""Counters and histograms for per-task / per-scheduler metrics.

A :class:`MetricsRegistry` owns named :class:`Counter` and
:class:`Histogram` instruments, each keyed by a label (conventionally the
task name, ``""`` for unlabeled totals).  Instruments are cheap plain
dictionaries — no locks, no wall clock — and :meth:`MetricsRegistry.snapshot`
renders everything into a deterministic, JSON-able nested dict that
experiment results and the parallel cell farm carry per cell.

Conventions used across the package (the metrics catalog lives in
docs/OBSERVABILITY.md):

* ``faults`` — register-page faults taken, by task
* ``submits`` — requests that reached the device, by task
* ``episodes`` / ``denials`` / ``token_passes`` — scheduler decisions
* ``overuse_charged_us`` — overuse charged past slice boundaries, by task
* ``request_latency_us`` — submit-to-retire latency histogram, by task
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

#: Default histogram bucket upper bounds (µs): roughly exponential from
#: sub-trap-cost to the documented maximum request run time.
DEFAULT_BUCKETS_US = (
    10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 50_000.0, 250_000.0, 1_000_000.0,
)

#: Catalog of every counter name the system bumps, with a one-line
#: meaning.  The registry-completeness test scans the source tree for
#: ``metrics.inc("...")`` / ``metrics.counter("...")`` sites and rejects
#: any name missing here, so the catalog cannot silently drift.
KNOWN_COUNTERS: dict[str, str] = {
    "faults": "register-page faults taken, by task",
    "submits": "requests that reached the device, by task",
    "releases": "requests released for dispatch by a per-request scheduler",
    "episodes": "DFQ engagement episodes run, by scheduler name",
    "denials": "intervals a task was denied device access",
    "token_passes": "timeslice token handoffs, by task",
    "overuse_charged_us": "overuse charged past slice boundaries, by task",
    "task_kills": "tasks killed by the kernel (runaway protection)",
    "faults_injected": "injector fault specs fired, by task",
    "fault_detections": "stuck drains the watchdog attributed, by task",
    "fault_recoveries": "detected faults resolved without a kill, by task",
    "fault_escalations": "watchdog escalations to a kill, by task",
    "watchdog_retries": "backed-off watchdog re-drains, by task",
    "windows_closed": "streaming metric windows closed, by monitor",
    "slo_violations": "SLO rules entering the violated state, by task",
    "slo_recoveries": "SLO rules clearing a violation, by task",
    "fleet_migrations": "tenant migrations between fleet devices, by task",
    "fleet_device_losses": "whole devices dropped from the fleet",
}

#: Catalog of every histogram name, same contract as KNOWN_COUNTERS.
KNOWN_HISTOGRAMS: dict[str, str] = {
    "request_latency_us": "submit-to-retire latency, by task",
}


class Counter:
    """A monotonically increasing value per label."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: dict[str, float] = {}

    def inc(self, label: str = "", amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._values[label] = self._values.get(label, 0.0) + amount

    def value(self, label: str = "") -> float:
        return self._values.get(label, 0.0)

    @property
    def total(self) -> float:
        return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        return {label: self._values[label] for label in sorted(self._values)}


class Histogram:
    """Bucketed distribution per label (cumulative-style buckets).

    ``buckets`` are inclusive upper bounds; an implicit overflow bucket
    catches everything larger.  Count, sum, min, and max are tracked
    exactly, so means are exact and percentiles bucket-accurate.
    """

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS_US,
        description: str = "",
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.description = description
        self.buckets = tuple(float(bound) for bound in buckets)
        #: Per label, one ``[bucket counts, sum, count, min, max]`` list,
        #: so an observation costs one dict lookup.
        self._labels: dict[str, list] = {}

    def observe(self, label: str, value: float) -> None:
        state = self._labels.get(label)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0.0, 0, value, value]
            self._labels[label] = state
        state[0][bisect_left(self.buckets, value)] += 1
        state[1] += value
        state[2] += 1
        if value < state[3]:
            state[3] = value
        elif value > state[4]:
            state[4] = value

    def count(self, label: str = "") -> int:
        state = self._labels.get(label)
        return 0 if state is None else state[2]

    def mean(self, label: str = "") -> Optional[float]:
        state = self._labels.get(label)
        if state is None:
            return None
        return state[1] / state[2]

    def quantile(self, label: str, q: float) -> Optional[float]:
        """Bucket-resolution quantile: the upper bound of the bucket the
        q-th observation falls in (``inf`` for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        state = self._labels.get(label)
        if state is None:
            return None
        counts, total = state[0], state[2]
        rank = q * total
        seen = 0
        for position, bucket_count in enumerate(counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if position < len(self.buckets):
                    return self.buckets[position]
                return float("inf")
        return float("inf")

    def snapshot(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for label in sorted(self._labels):
            counts, total, count, low, high = self._labels[label]
            out[label] = {
                "count": count,
                "sum": total,
                "min": low,
                "max": high,
                "buckets": list(counts),
            }
        return out


class MetricsRegistry:
    """Named instruments, created on first use and snapshotted together."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, description: str = "") -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = Counter(name, description)
            self._counters[name] = found
        return found

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS_US,
        description: str = "",
    ) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = Histogram(name, buckets, description)
            self._histograms[name] = found
        return found

    def inc(self, name: str, label: str = "", amount: float = 1.0) -> None:
        """Shorthand: bump counter ``name`` for ``label``."""
        self.counter(name).inc(label, amount)

    def observe(self, name: str, label: str, value: float) -> None:
        """Shorthand: record ``value`` into histogram ``name``."""
        self.histogram(name).observe(label, value)

    def snapshot(self) -> dict:
        """Deterministic nested dict of every instrument's state."""
        return {
            "counters": {
                name: self._counters[name].snapshot()
                for name in sorted(self._counters)
            },
            "histograms": {
                name: {
                    "buckets": list(self._histograms[name].buckets),
                    "labels": self._histograms[name].snapshot(),
                }
                for name in sorted(self._histograms)
            },
        }

    def task_view(self, task: str) -> dict:
        """Flat summary of every instrument's value for one task label.

        Counters contribute their value; histograms contribute
        ``{name}_count`` / ``{name}_mean`` / ``{name}_p95``.  Instruments
        with no data for the task are included as zeros so result shapes
        stay uniform across tasks.
        """
        view: dict[str, float] = {}
        for name in sorted(self._counters):
            view[name] = self._counters[name].value(task)
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            count = histogram.count(task)
            view[f"{name}_count"] = float(count)
            view[f"{name}_mean"] = histogram.mean(task) or 0.0
            view[f"{name}_p95"] = (
                histogram.quantile(task, 0.95) or 0.0 if count else 0.0
            )
        return view
