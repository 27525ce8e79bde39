"""Per-task trace summaries and trace diffs for the ``repro trace`` CLI.

A :class:`TaskSummary` is reconstructed from the trace alone: request and
fault counts directly from their events, engaged/disengaged time by
replaying the interception layer's protection flips per channel through
the live ledger's :class:`~repro.obs.engagement.EngagementClock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs import events
from repro.obs.engagement import EngagementClock
from repro.obs.overhead import overhead_breakdown
from repro.obs.windows import tenant_key
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
        return {
            "task": self.task,
            "submits": self.submits,
            "completes": self.completes,
            "aborts": self.aborts,
            "faults": self.faults,
            "denials": self.denials,
            "samples": self.samples,
            "engaged_us": self.engaged_us,
            "disengaged_us": self.disengaged_us,
            "killed": self.killed,
            "exited": self.exited,
            "latency_sum_us": self.latency_sum_us,
            "latency_count": self.latency_count,
            "mean_latency_us": self.mean_latency_us,
            "faults_injected": self.faults_injected,
            "fault_detections": self.fault_detections,
            "fault_recoveries": self.fault_recoveries,
            "fault_escalations": self.fault_escalations,
        }


@dataclass(frozen=True)
class FaultIncident:
    """One entry of the injection/recovery timeline, in trace order."""

    time_us: float
    kind: str
    task: str
    detail: str

    def to_dict(self) -> dict:
        return {
            "time_us": self.time_us,
            "kind": self.kind,
            "task": self.task,
            "detail": self.detail,
        }


@dataclass
class TraceSummary:
    """Whole-trace rollup: per-task summaries plus the overhead view."""

    span_us: tuple[float, float]
    records: int
    dropped: int
    kind_counts: dict[str, int]
    tasks: dict[str, TaskSummary] = field(default_factory=dict)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Injection and watchdog events in trace order; empty without faults.
    fault_timeline: list[FaultIncident] = field(default_factory=list)

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


def summarize(trace: TraceRecorder, end_us: Optional[float] = None) -> TraceSummary:
    """Build a :class:`TraceSummary` by replaying the trace."""
    if end_us is None:
        end_us = trace.span_us[1]

    tasks: dict[str, TaskSummary] = {}
    timeline: list[FaultIncident] = []

    def task_summary(name: str) -> TaskSummary:
        summary = tasks.get(name)
        if summary is None:
            summary = TaskSummary(name)
            tasks[name] = summary
        return summary

    engagement = EngagementClock(task_summary)

    def fault_event(record, detail: str) -> None:
        task = tenant_key(record.payload)
        timeline.append(
            FaultIncident(record.time, record.kind, task or "", detail)
        )

    for record in trace.records():
        payload = record.payload
        task = tenant_key(payload)
        engagement.observe(record, tenant_key)
        if record.kind == events.FAULT_INJECTED:
            fault_event(record, payload.get("point", ""))
            if task:
                task_summary(task).faults_injected += 1
            continue
        elif record.kind == events.WATCHDOG_RETRY:
            fault_event(
                record,
                f"attempt {payload.get('attempt')} "
                f"(timeout {payload.get('timeout_us')} us)",
            )
            continue
        if task is None:
            continue
        if record.kind == events.REQUEST_SUBMIT:
            task_summary(task).submits += 1
        elif record.kind == events.REQUEST_COMPLETE:
            summary = task_summary(task)
            summary.completes += 1
            latency = payload.get("latency_us")
            if isinstance(latency, (int, float)):
                summary.latency_sum_us += latency
                summary.latency_count += 1
        elif record.kind == events.REQUEST_ABORTED:
            task_summary(task).aborts += 1
        elif record.kind == events.FAULT:
            task_summary(task).faults += 1
        elif record.kind == events.DENIAL:
            task_summary(task).denials += 1
        elif record.kind == events.SAMPLE_WINDOW_END:
            summary = task_summary(task)
            observed = payload.get("observed")
            if isinstance(observed, int):
                summary.samples += observed
        elif record.kind == events.FAULT_DETECTED:
            task_summary(task).fault_detections += 1
            fault_event(record, f"waited {payload.get('waited_us')} us")
        elif record.kind == events.FAULT_RECOVERED:
            task_summary(task).fault_recoveries += 1
            fault_event(record, payload.get("action", ""))
        elif record.kind == events.FAULT_ESCALATED:
            task_summary(task).fault_escalations += 1
            fault_event(record, payload.get("reason", ""))
        elif record.kind == events.TASK_KILLED:
            task_summary(task).killed = True
        elif record.kind == events.TASK_EXIT:
            task_summary(task).exited = True

    engagement.settle(end_us)

    return TraceSummary(
        span_us=trace.span_us,
        records=len(trace),
        dropped=trace.dropped,
        kind_counts=trace.kind_counts(),
        tasks=dict(sorted(tasks.items())),
        breakdown=overhead_breakdown(trace, end_us=end_us),
        fault_timeline=timeline,
    )


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
