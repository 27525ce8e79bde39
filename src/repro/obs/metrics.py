"""Counters and raw samples for per-task / per-scheduler metrics.

A :class:`MetricsRegistry` owns named :class:`Counter` instruments and
named sample arrays, each keyed by a label (conventionally the task
name, ``""`` for unlabeled totals).  Both are plain dictionaries — no
locks, no wall clock.  Samples are kept raw and binned only when
:meth:`MetricsRegistry.task_view` summarizes them, so recording one costs
an append of 8 bytes (an ``array('d')`` keeps no float object alive).

Conventions used across the package (the metrics catalog lives in
docs/OBSERVABILITY.md):

* ``faults`` — register-page faults taken, by task
* ``submits`` — requests that reached the device, by task
* ``episodes`` / ``denials`` / ``token_passes`` — scheduler decisions
* ``overuse_charged_us`` — overuse charged past slice boundaries, by task
* ``request_latency_us`` — submit-to-retire latency samples, by task
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from functools import partial
from typing import Sequence

#: Bucket upper bounds (µs) the latency p95 is resolved to: roughly
#: exponential from sub-trap-cost to the documented maximum request run
#: time, with an implicit overflow bucket (``inf``) above the last.
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


class Counter:
    """A monotonically increasing value per label."""

    def __init__(self, name: str) -> None:
        self.name = name
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


def summarize_samples(values: Sequence[float]) -> tuple[float, float, float]:
    """``(count, mean, p95)`` of one label's samples, all ``0.0`` if empty.

    The mean is a running sum in observation order: ``sum()`` compensates
    float rounding on Python 3.12 and later but not before, so it would
    give different last digits across supported interpreters.  The p95
    bins the samples into :data:`DEFAULT_BUCKETS_US` and returns the
    upper bound of the first non-empty bucket whose running count reaches
    ``0.95 * count`` (``inf`` for the overflow bucket).
    """
    if not values:
        return 0.0, 0.0, 0.0
    total = 0.0
    bins = [0] * (len(DEFAULT_BUCKETS_US) + 1)
    for value in values:
        total += value
        bins[bisect_left(DEFAULT_BUCKETS_US, value)] += 1
    count = len(values)
    rank = 0.95 * count
    seen = 0
    for position, bin_count in enumerate(bins):
        seen += bin_count
        if seen >= rank and bin_count:
            break
    p95 = (
        DEFAULT_BUCKETS_US[position]
        if position < len(DEFAULT_BUCKETS_US) else float("inf")
    )
    return float(count), total / count, p95


class MetricsRegistry:
    """Named counters and sample arrays, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._samples: dict[str, defaultdict[str, array]] = {}

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = Counter(name)
            self._counters[name] = found
        return found

    def samples(self, name: str) -> defaultdict[str, array]:
        """The per-label sample arrays of ``name``; append to record one."""
        found = self._samples.get(name)
        if found is None:
            found = self._samples[name] = defaultdict(partial(array, "d"))
        return found

    def inc(self, name: str, label: str = "", amount: float = 1.0) -> None:
        """Shorthand: bump counter ``name`` for ``label``."""
        self.counter(name).inc(label, amount)

    def task_view(self, task: str) -> dict:
        """Flat summary of every instrument's value for one task label.

        Counters contribute their value; sample arrays contribute
        ``{name}_count`` / ``{name}_mean`` / ``{name}_p95`` (see
        :func:`summarize_samples`).  Instruments with no data for the
        task are included as zeros so result shapes stay uniform across
        tasks.
        """
        view: dict[str, float] = {}
        for name in sorted(self._counters):
            view[name] = self._counters[name].value(task)
        for name in sorted(self._samples):
            count, mean, p95 = summarize_samples(
                self._samples[name].get(task, ())
            )
            view[f"{name}_count"] = count
            view[f"{name}_mean"] = mean
            view[f"{name}_p95"] = p95
        return view
