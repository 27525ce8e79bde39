"""Per-task trace summaries and trace diffs for the ``repro trace`` CLI.

A :class:`TraceSummary` is built by the one trace fold
(:func:`repro.obs.spans.fold_trace`) from the trace alone: request and
fault counts directly from their events, engaged/disengaged time by
replaying the interception layer's protection flips per channel through
the live ledger's :class:`~repro.obs.engagement.EngagementClock`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.sim.trace import TraceRecorder


@dataclass
class TaskSummary:
    """What one task did, as seen by the trace."""

    task: str
    submits: int = 0
    completes: int = 0
    aborts: int = 0
    faults: int = 0
    denials: int = 0
    samples: int = 0
    engaged_us: float = 0.0
    disengaged_us: float = 0.0
    killed: bool = False
    exited: bool = False
    latency_sum_us: float = 0.0
    latency_count: int = 0
    faults_injected: int = 0
    fault_detections: int = 0
    fault_recoveries: int = 0
    fault_escalations: int = 0

    @property
    def mean_latency_us(self) -> Optional[float]:
        if self.latency_count == 0:
            return None
        return self.latency_sum_us / self.latency_count

    def to_dict(self) -> dict:
        return {**asdict(self), "mean_latency_us": self.mean_latency_us}


@dataclass(frozen=True)
class FaultIncident:
    """One entry of the injection/recovery timeline, in trace order."""

    time_us: float
    kind: str
    task: str
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TraceSummary:
    """Whole-trace rollup: per-task summaries plus the overhead view.

    ``breakdown`` is the engagement-overhead breakdown (drain wait,
    sampling, engagement, free-run) summed over devices."""

    span_us: tuple[float, float]
    records: int
    dropped: int
    kind_counts: dict[str, int]
    tasks: dict[str, TaskSummary] = field(default_factory=dict)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Injection and watchdog events in trace order; empty without faults.
    fault_timeline: list[FaultIncident] = field(default_factory=list)
    #: Distinct device tags in the trace (1 when untagged): ``breakdown``
    #: sums per-device episode time, so it spans ``devices`` run lengths.
    devices: int = 1

    def to_dict(self) -> dict:
        """JSON-able form (``repro trace summary --json``); consumed by
        ``repro why`` for its run overview."""
        return {
            "span_us": [self.span_us[0], self.span_us[1]],
            "records": self.records,
            "dropped": self.dropped,
            "kind_counts": dict(self.kind_counts),
            "tasks": {
                name: task.to_dict() for name, task in self.tasks.items()
            },
            "breakdown": dict(self.breakdown),
            "fault_timeline": [
                incident.to_dict() for incident in self.fault_timeline
            ],
        }


def diff_counts(
    left: TraceRecorder, right: TraceRecorder
) -> dict[str, tuple[int, int]]:
    """Per-kind record counts that differ between two traces."""
    left_counts = left.kind_counts()
    right_counts = right.kind_counts()
    out: dict[str, tuple[int, int]] = {}
    for kind in sorted(set(left_counts) | set(right_counts)):
        left_value = left_counts.get(kind, 0)
        right_value = right_counts.get(kind, 0)
        if left_value != right_value:
            out[kind] = (left_value, right_value)
    return out


def diff_tasks(
    left: TraceSummary, right: TraceSummary
) -> dict[str, dict[str, tuple[float, float]]]:
    """Per-task metric pairs that differ between two summaries."""
    fields = (
        "submits", "completes", "aborts", "faults", "denials",
        "engaged_us", "disengaged_us",
        "faults_injected", "fault_detections", "fault_recoveries",
        "fault_escalations",
    )
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for task in sorted(set(left.tasks) | set(right.tasks)):
        left_task = left.tasks.get(task) or TaskSummary(task)
        right_task = right.tasks.get(task) or TaskSummary(task)
        deltas: dict[str, tuple[float, float]] = {}
        for name in fields:
            left_value = getattr(left_task, name)
            right_value = getattr(right_task, name)
            if left_value != right_value:
                deltas[name] = (left_value, right_value)
        if deltas:
            out[task] = deltas
    return out
