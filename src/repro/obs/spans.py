"""The one trace fold: lifecycle spans, tenant summaries, overhead.

The trace (:mod:`repro.sim.trace`) is a flat event stream.
:class:`TraceFold` reads it once and produces every offline view of it:

* the :class:`SpanSet` — every request becomes a lifecycle span (submit
  → scheduler wait → device queue → execute → complete/abort) with an
  **exact** decomposition of its latency into labeled components;
* the per-tenant :class:`~repro.obs.summary.TaskSummary` counts, with
  engaged/disengaged channel-time replayed through the live ledger's
  :class:`~repro.obs.engagement.EngagementClock`;
* the fault/recovery timeline;
* the engagement-overhead breakdown, paired per device.

Tenants are keyed by each record's ``tenant`` (``name``, or ``name@dN``
on device-tagged fleet traces; see :func:`~repro.sim.trace.tenant_key`),
and each span carries the key the summary counts it under.  The fold is
a pure function of the record stream, so it runs in two interchangeable
modes:

* as a **live sink** registered with
  :meth:`~repro.sim.trace.TraceRecorder.add_sink`, which sees the
  complete stream before ring-buffer eviction (like the windows, the
  spans are independent of ``max_records``); or
* as **replay** over a buffered or JSONL-imported trace
  (:func:`fold_trace`, :func:`build_spans`), in which case the result
  covers whatever the buffer retained.

Both modes feed the identical state machine, so a live fold and a
replay over the exported JSONL of the same run serialize byte-identically.

Decomposition components (integer microseconds, summing exactly to the
span duration):

``sched_wait``
    Scheduler queue-wait: the fault handler held the task blocked on the
    scheduler's verdict (disengaged denial wait, fair-queue token wait).
``handler``
    Interception handler overhead outside the blocked wait: trap,
    fault-handling CPU, single-step, the submit path itself.
``queue``
    Device queue contention: the request sat enqueued while the engine
    served other work (including re-queue time after a preemption).
``exec``
    Engine execution (as observed through completion publication, so a
    stalled reference counter inflates it exactly as software sees it).
``stall``
    Fault-recovery stall: wait time overlapping a watchdog
    detect→recover/escalate window on the span's device.
``migration``
    Fleet migration cost: wait time overlapping the task's own
    ``fleet.migrate_begin``→``end`` window.

Spans carry the fleet ``device`` tag (0 when the trace has none) and
survive migrations as *linked* cross-device segments: each span records
the task's migration epoch, and the span set lists the
:class:`MigrationLink` joining epoch *n* on the source device to epoch
*n+1* on the target.

Barriers, sampling windows and fleet migrations become
:class:`SystemSpan` intervals, each paired from its ``*_begin`` and
``*_end`` records by a correlation key taken from the payload.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, NamedTuple, Optional, Union

from repro.obs import events
from repro.obs.engagement import EngagementClock
from repro.obs.summary import FaultIncident, TaskSummary, TraceSummary
from repro.sim.trace import TraceRecord, TraceRecorder

SPANS_FORMAT = "repro-spans"
SPANS_VERSION = 1

#: Decomposition component labels, in display order.
COMPONENTS = ("sched_wait", "handler", "queue", "exec", "stall", "migration")

#: Human description per component (the ``repro why`` vocabulary).
COMPONENT_LABELS = {
    "sched_wait": "scheduler-induced delay (blocked on token / engagement)",
    "handler": "interception handler overhead (trap, single-step, submit)",
    "queue": "scheduler queue-wait (device busy with other tenants' work)",
    "exec": "engine execution",
    "stall": "fault-recovery stall (watchdog retry/quarantine window)",
    "migration": "fleet migration cost (boundary drain + re-create)",
}

#: Wait-side labels eligible for stall/migration carve-outs and for
#: interference blame (everything that is not execution).
_WAIT_LABELS = frozenset(("sched_wait", "handler", "queue"))

#: Terminal tags a span can close with.
TERMINALS = (
    "complete", "aborted", "killed", "exited", "migrated", "truncated",
)


#: System-span pair names: the non-request intervals the fold pairs
#: from their begin/end records (see :class:`SystemSpan`).
BARRIER = "barrier"
SAMPLE_WINDOW = "sample_window"
FLEET_MIGRATE = "fleet.migrate"


# ----------------------------------------------------------------------
# Result model
# ----------------------------------------------------------------------

class Segment(NamedTuple):
    """One labeled, contiguous slice of a span's timeline.

    Bounds are integer microseconds: ``round()`` of record times
    (half-even, so monotone in time)."""

    label: str
    start_us: int
    end_us: int

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


@dataclass(slots=True)
class Span:
    """One request's reconstructed lifecycle."""

    span_id: int
    task: str
    #: The summary's tenant key: ``task``, or ``task@dN`` when the trace
    #: carries device tags (``device`` reads 0 for both untagged and
    #: device-0 records; this does not).
    tenant: str
    device: int
    channel: Optional[int]
    ref: Optional[int]
    start_us: float
    end_us: float
    terminal: str
    migration_epoch: int
    segments: tuple[Segment, ...]
    #: Device-observed latency from the completion event, when present
    #: (enqueue → completion; excludes the handler/scheduler wait).
    latency_us: Optional[float] = None

    @property
    def components(self) -> dict[str, int]:
        """Integer µs per component label (every label, in
        :data:`COMPONENTS` order), summed over the segments."""
        components = dict.fromkeys(COMPONENTS, 0)
        for label, start, end in self.segments:
            components[label] += end - start
        return components

    @property
    def duration_us(self) -> int:
        """Integer span duration; equals ``sum(components.values())``."""
        return sum(end - start for _label, start, end in self.segments)

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "task": self.task,
            "device": self.device,
            "channel": self.channel,
            "ref": self.ref,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "terminal": self.terminal,
            "migration_epoch": self.migration_epoch,
            "segments": [list(seg) for seg in self.segments],
            "components": self.components,
            "latency_us": self.latency_us,
        }


@dataclass(frozen=True)
class SystemSpan:
    """A non-request paired interval (barrier, sampling window, migration)."""

    pair: str
    key: tuple
    device: int
    start_us: float
    end_us: float
    payload: dict[str, Any] = field(default_factory=dict)


class ExecInterval(NamedTuple):
    """Engine occupancy: who held a device engine over an interval."""

    device: int
    task: str
    start_us: int
    end_us: int


@dataclass(frozen=True)
class MigrationLink:
    """The join between a task's pre- and post-migration span epochs."""

    task: str
    src: int
    dst: int
    start_us: float
    end_us: float
    cost_us: float
    epoch: int


# ----------------------------------------------------------------------
# Fold internals
# ----------------------------------------------------------------------

class _OpenSpan:
    """Mutable span under construction: a list of (cut, label) phases."""

    __slots__ = (
        "task", "tenant", "device", "channel", "ref", "start_us", "cuts",
        "epoch",
    )

    def __init__(
        self,
        task: str,
        tenant: str,
        device: int,
        channel: Optional[int],
        start_us: float,
        label: str,
        epoch: int,
    ) -> None:
        self.task = task
        self.tenant = tenant
        self.device = device
        self.channel = channel
        self.ref: Optional[int] = None
        self.start_us = start_us
        #: (cut, label active from that cut).  Cuts strictly increase and
        #: neighbouring labels differ, so the phases between cuts are
        #: the span's segments as they stand.
        self.cuts: list[tuple[int, str]] = [(round(start_us), label)]
        self.epoch = epoch

    def cut(self, at: int, label: str) -> None:
        last_at, last_label = self.cuts[-1]
        if at < last_at:
            at = last_at
        if label == last_label:
            return
        if at == last_at:
            # Zero-length phase: replace, collapsing with the predecessor
            # when the replacement matches it.
            if len(self.cuts) >= 2 and self.cuts[-2][1] == label:
                self.cuts.pop()
            else:
                self.cuts[-1] = (at, label)
        else:
            self.cuts.append((at, label))


class _Episodes:
    """One device's engagement episodes, for the overhead breakdown.

    The disengaged schedulers keep a live ``time_breakdown``; the fold
    derives the same four quantities from trace events alone (the
    paper's §5.2 overhead story), pairing events within one device:

    * ``engagement_us`` — ``barrier_begin`` → ``freerun_start``; a
      trailing unfinished episode is excluded, as the live accounting
      excludes it;
    * ``sampling_us`` — ``sample_window_begin`` → ``sample_window_end``
      (within an episode the windows run back-to-back, each including
      its post-window drain);
    * ``drain_wait_us`` — ``drain_stall.waited_us`` of the stalls outside
      every sampling window (the barrier drain);
    * ``freerun_us`` — each ``freerun_start``'s scheduled length, counted
      only if the free-run completed by the run's end.
    """

    def __init__(self) -> None:
        self.barrier: Optional[float] = None
        self.window_begin: Optional[float] = None
        self.windows: list[tuple[float, float]] = []
        self.stalls: list[tuple[float, float]] = []
        self.freeruns: list[tuple[float, float]] = []
        self.engagement_us = 0.0

    def breakdown(self, end_us: float) -> dict[str, float]:
        # The in-window test is half-open (begin, end]: a barrier drain
        # returns at the instant the first window opens, while an
        # in-window drain's stall lands exactly on its window's end.
        drain_wait = 0.0
        for time, waited_us in self.stalls:
            if not any(begin < time <= end for begin, end in self.windows):
                drain_wait += waited_us
        freerun = 0.0
        for time, freerun_us in self.freeruns:
            if time + freerun_us <= end_us:
                freerun += freerun_us
        return {
            "drain_wait_us": drain_wait,
            "sampling_us": sum(end - begin for begin, end in self.windows),
            "engagement_us": self.engagement_us,
            "freerun_us": freerun,
        }


def _carve(
    segments: list[Segment],
    windows: list[tuple[int, int]],
    label: str,
) -> list[Segment]:
    """Relabel the overlap of wait segments with ``windows`` as ``label``.

    A pure sub-partition: total duration is preserved exactly."""
    out: list[Segment] = []
    for seg in segments:
        if seg.label not in _WAIT_LABELS:
            out.append(seg)
            continue
        pieces = [seg]
        for win_start, win_end in windows:
            next_pieces: list[Segment] = []
            for piece in pieces:
                if piece.label not in _WAIT_LABELS:
                    next_pieces.append(piece)
                    continue
                lo = max(piece.start_us, win_start)
                hi = min(piece.end_us, win_end)
                if lo >= hi:
                    next_pieces.append(piece)
                    continue
                if piece.start_us < lo:
                    next_pieces.append(Segment(piece.label, piece.start_us, lo))
                next_pieces.append(Segment(label, lo, hi))
                if hi < piece.end_us:
                    next_pieces.append(Segment(label=piece.label,
                                               start_us=hi,
                                               end_us=piece.end_us))
            pieces = next_pieces
        out.extend(pieces)
    return _merge(out)


def _carve_span(
    span: Span,
    stalls: Optional[list[tuple[int, int]]],
    migrations: Optional[list[tuple[int, int]]],
) -> None:
    """Relabel a span's wait time inside its device's stall windows and
    its task's migration windows."""
    if not stalls and not migrations:
        return
    segments = list(span.segments)
    if stalls:
        segments = _carve(segments, stalls, "stall")
    if migrations:
        segments = _carve(segments, migrations, "migration")
    span.segments = tuple(segments)


def _merge(segments: list[Segment]) -> list[Segment]:
    """Drop empty segments and fuse adjacent same-label ones."""
    merged: list[Segment] = []
    for seg in segments:
        if seg.start_us >= seg.end_us:
            continue
        if merged and merged[-1].label == seg.label \
                and merged[-1].end_us == seg.start_us:
            merged[-1] = Segment(seg.label, merged[-1].start_us, seg.end_us)
        else:
            merged.append(seg)
    return merged


class FoldResult(NamedTuple):
    """What one pass over a trace produces."""

    spans: "SpanSet"
    summary: TraceSummary


class TraceFold:
    """The one pass over a trace (live sink or replay driver).

    Register an instance with ``trace.add_sink(fold)`` for a live fold,
    or feed records through :meth:`observe`; call :meth:`finish` once to
    obtain the :class:`FoldResult`.  What a record means is decided by
    one handler per event kind.
    """

    def __init__(self) -> None:
        #: Pre-submit groups per (device, channel): faults whose request
        #: has no device ``ref`` yet; married FIFO to the next
        #: ``request_submit`` on the same channel.
        self._presubmit: dict[tuple[int, int], deque[_OpenSpan]] = {}
        #: Post-submit spans keyed by (device, channel, ref).
        self._inflight: dict[tuple[int, Optional[int], Any], _OpenSpan] = {}
        #: Closed spans in close order, not yet carved by stall and
        #: migration windows.
        self._spans: list[Span] = []
        #: Open engine occupancy per (device, source):
        #: (task, channel, ref, start cut, device).
        self._busy: dict[tuple[int, str], tuple] = {}
        self._exec: list[ExecInterval] = []
        #: Open watchdog stall per (device, task) -> start cut.
        self._stall_open: dict[tuple[int, str], int] = {}
        self._stalls: dict[int, list[tuple[int, int]]] = {}
        #: Open migration per task -> (src, dst, begin time).
        self._migration_open: dict[str, tuple[int, int, float]] = {}
        self._migrations: list[MigrationLink] = []
        self._mig_windows: dict[str, list[tuple[int, int]]] = {}
        self._epoch: dict[str, int] = {}
        self._system_open: dict[tuple, tuple[float, dict]] = {}
        self._system: list[SystemSpan] = []
        self._tasks: dict[str, TaskSummary] = {}
        self._engagement = EngagementClock(self._task)
        self._timeline: list[FaultIncident] = []
        self._episodes: dict[int, _Episodes] = {}
        self._kind_counts: dict[str, int] = {}
        self._device_tags: set = set()
        self._records = 0
        self._first_us = self._last_us = self._end_us = 0.0
        self._result: Optional[FoldResult] = None
        self._handlers = {
            events.FAULT: self._on_fault,
            events.SCHED_WAIT_BEGIN: self._on_sched_wait,
            events.SCHED_WAIT_END: self._on_sched_wait,
            events.REQUEST_SUBMIT: self._on_submit,
            events.EXEC_BEGIN: self._on_exec_begin,
            events.REQUEST_PREEMPTED: self._on_preempted,
            events.REQUEST_COMPLETE: self._on_request_end,
            events.REQUEST_ABORTED: self._on_request_end,
            events.DENIAL: self._on_denial,
            events.CONTEXT_KILLED: self._on_context_killed,
            events.TASK_EXIT: self._on_task_end,
            events.TASK_KILLED: self._on_task_end,
            events.FAULT_INJECTED: self._on_fault_injected,
            events.WATCHDOG_RETRY: self._on_watchdog_retry,
            events.FAULT_DETECTED: self._on_fault_detected,
            events.FAULT_RECOVERED: self._on_fault_resolved,
            events.FAULT_ESCALATED: self._on_fault_resolved,
            events.BARRIER_BEGIN: self._on_barrier_begin,
            events.BARRIER_END: self._on_barrier_end,
            events.FREERUN_START: self._on_freerun_start,
            events.SAMPLE_WINDOW_BEGIN: self._on_sample_window_begin,
            events.SAMPLE_WINDOW_END: self._on_sample_window_end,
            events.DRAIN_STALL: self._on_drain_stall,
            events.FLEET_MIGRATE_BEGIN: self._on_migrate_begin,
            events.FLEET_MIGRATE_END: self._on_migrate_end,
        }

    def observe(self, record: TraceRecord) -> None:
        if self._result is not None:
            raise RuntimeError("TraceFold already finished")
        t = record.time
        if not self._records:
            self._first_us = t
        self._records += 1
        kind = record.kind
        if t >= self._last_us or kind != events.EXEC_BEGIN:
            # An exec.begin announced after its segment started carries
            # the earlier start; the trace still ends where it ended.
            self._last_us = t
        if t > self._end_us:
            self._end_us = t
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        payload = record.payload
        tag = payload.get("device")
        self._device_tags.add(tag)
        self._engagement.observe(record)
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(record, t, payload, tag if isinstance(tag, int) else 0)

    #: The sink protocol: a recorder calls its sinks with each record.
    __call__ = observe

    # -- per-kind handlers ----------------------------------------------
    def _on_fault(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is None:
            return
        self._task(tenant).faults += 1
        task = payload["task"]
        channel = payload.get("channel")
        self._presubmit.setdefault((device, channel), deque()).append(
            _OpenSpan(task, tenant, device, channel, t, "handler",
                      self._epoch.get(task, 0))
        )

    def _on_sched_wait(self, record, t, payload, device) -> None:
        queue = self._presubmit.get((device, payload.get("channel")))
        if queue:
            blocked = record.kind == events.SCHED_WAIT_BEGIN
            queue[-1].cut(round(t), "sched_wait" if blocked else "handler")

    def _on_submit(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is None:
            return
        self._task(tenant).submits += 1
        channel = payload.get("channel")
        queue = self._presubmit.get((device, channel))
        if queue:
            span = queue.popleft()
            span.cut(round(t), "queue")
        else:
            # Direct (unprotected) submit: the doorbell write is the
            # first observable point of this request's life.
            task = payload["task"]
            span = _OpenSpan(task, tenant, device, channel, t, "queue",
                             self._epoch.get(task, 0))
        span.ref = payload.get("ref")
        self._inflight[(device, channel, span.ref)] = span

    def _on_exec_begin(self, record, t, payload, device) -> None:
        at = round(t)
        channel = payload.get("channel")
        ref = payload.get("ref")
        span = self._inflight.get((device, channel, ref))
        if span is not None:
            span.cut(at, "exec")
        key = (device, record.source)
        open_entry = self._busy.get(key)
        if open_entry is not None:
            # The engine moved on without a terminal for the previous
            # occupant (e.g. a completion publication stalled past the
            # next dispatch): close it at the successor's start.
            self._busy_record(open_entry, at)
        self._busy[key] = (payload.get("task"), channel, ref, at, device)

    def _on_preempted(self, record, t, payload, device) -> None:
        at = round(t)
        channel = payload.get("channel")
        ref = payload.get("ref")
        span = self._inflight.get((device, channel, ref))
        if span is not None:
            span.cut(at, "queue")
        self._busy_end(device, record.source, channel, ref, at)

    def _on_request_end(self, record, t, payload, device) -> None:
        complete = record.kind == events.REQUEST_COMPLETE
        latency = payload.get("latency_us")
        if not isinstance(latency, (int, float)):
            latency = None
        tenant = record.tenant
        if tenant is not None:
            summary = self._task(tenant)
            if not complete:
                summary.aborts += 1
            else:
                summary.completes += 1
                if latency is not None:
                    summary.latency_sum_us += latency
                    summary.latency_count += 1
        begin = payload.get("begin_us")
        if begin is not None:
            # An unannounced segment: its completion stands in for the
            # exec.begin it would have had.
            self._on_exec_begin(record, begin, payload, device)
        at = round(t)
        channel = payload.get("channel")
        ref = payload.get("ref")
        span = self._inflight.pop((device, channel, ref), None)
        if span is not None:
            self._close(span, t, at, "complete" if complete else "aborted",
                        latency)
        self._busy_end(device, record.source, channel, ref, at)

    def _on_denial(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is not None:
            self._task(tenant).denials += 1

    def _on_context_killed(self, record, t, payload, device) -> None:
        task = payload.get("task")
        if isinstance(task, str):
            terminal = "migrated" if task in self._migration_open else "killed"
            self._close_task(task, t, terminal, device=device)

    def _on_task_end(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is None:
            return
        if record.kind == events.TASK_EXIT:
            self._task(tenant).exited = True
            self._close_task(payload["task"], t, "exited")
        else:
            self._task(tenant).killed = True
            self._close_task(payload["task"], t, "killed")

    def _on_fault_injected(self, record, t, payload, device) -> None:
        tenant = record.tenant
        self._incident(record, tenant, payload.get("point", ""))
        if tenant is not None:
            self._task(tenant).faults_injected += 1

    def _on_watchdog_retry(self, record, t, payload, device) -> None:
        self._incident(
            record, record.tenant,
            f"attempt {payload.get('attempt')} "
            f"(timeout {payload.get('timeout_us')} us)",
        )

    def _on_fault_detected(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is None:
            return
        self._task(tenant).fault_detections += 1
        self._incident(record, tenant, f"waited {payload.get('waited_us')} us")
        self._stall_open.setdefault((device, payload["task"]), round(t))

    def _on_fault_resolved(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is not None:
            if record.kind == events.FAULT_RECOVERED:
                self._task(tenant).fault_recoveries += 1
                self._incident(record, tenant, payload.get("action", ""))
            else:
                self._task(tenant).fault_escalations += 1
                self._incident(record, tenant, payload.get("reason", ""))
        start = self._stall_open.pop((device, payload.get("task")), None)
        if start is not None:
            self._stalls.setdefault(device, []).append((start, round(t)))

    def _on_barrier_begin(self, record, t, payload, device) -> None:
        self._device_episodes(device).barrier = t
        self._system_begin(BARRIER, (payload.get("episode"),), payload, device, t)

    def _on_barrier_end(self, record, t, payload, device) -> None:
        self._system_end(BARRIER, (payload.get("episode"),), payload, device, t)

    def _on_freerun_start(self, record, t, payload, device) -> None:
        episodes = self._device_episodes(device)
        if episodes.barrier is not None:
            episodes.engagement_us += t - episodes.barrier
            episodes.barrier = None
        episodes.freeruns.append((t, float(payload.get("freerun_us", 0.0))))

    def _on_sample_window_begin(self, record, t, payload, device) -> None:
        self._device_episodes(device).window_begin = t
        self._system_begin(
            SAMPLE_WINDOW, (payload.get("task"),), payload, device, t
        )

    def _on_sample_window_end(self, record, t, payload, device) -> None:
        tenant = record.tenant
        if tenant is not None:
            observed = payload.get("observed")
            summary = self._task(tenant)
            if isinstance(observed, int):
                summary.samples += observed
        episodes = self._device_episodes(device)
        if episodes.window_begin is not None:
            episodes.windows.append((episodes.window_begin, t))
            episodes.window_begin = None
        self._system_end(
            SAMPLE_WINDOW, (payload.get("task"),), payload, device, t
        )

    def _on_drain_stall(self, record, t, payload, device) -> None:
        self._device_episodes(device).stalls.append(
            (t, float(payload.get("waited_us", 0.0)))
        )

    def _on_migrate_begin(self, record, t, payload, device) -> None:
        task = payload.get("task")
        self._system_begin(FLEET_MIGRATE, (task,), payload, device, t)
        if isinstance(task, str):
            self._migration_open[task] = (
                payload.get("src", device), payload.get("dst", device), t,
            )

    def _on_migrate_end(self, record, t, payload, device) -> None:
        task = payload.get("task")
        self._system_end(FLEET_MIGRATE, (task,), payload, device, t)
        entry = self._migration_open.pop(task, None)
        if entry is not None:
            src, dst, begin = entry
            epoch = self._epoch.get(task, 0)
            cost = payload.get("cost_us", 0.0)
            self._migrations.append(MigrationLink(
                task, src, dst, begin, t,
                cost if isinstance(cost, (int, float)) else 0.0, epoch,
            ))
            self._mig_windows.setdefault(task, []) \
                .append((round(begin), round(t)))
            self._epoch[task] = epoch + 1

    # -- helpers --------------------------------------------------------
    def _task(self, tenant: str) -> TaskSummary:
        summary = self._tasks.get(tenant)
        if summary is None:
            summary = self._tasks[tenant] = TaskSummary(tenant)
        return summary

    def _incident(self, record, tenant: Optional[str], detail: str) -> None:
        self._timeline.append(
            FaultIncident(record.time, record.kind, tenant or "", detail)
        )

    def _device_episodes(self, device: int) -> _Episodes:
        episodes = self._episodes.get(device)
        if episodes is None:
            episodes = self._episodes[device] = _Episodes()
        return episodes

    def _busy_end(self, device, source, channel, ref, at) -> None:
        key = (device, source)
        entry = self._busy.get(key)
        if entry is not None and entry[1] == channel and entry[2] == ref:
            del self._busy[key]
            self._busy_record(entry, at)

    def _busy_record(self, entry: tuple, at: int) -> None:
        task, _channel, _ref, start, device = entry
        if isinstance(task, str) and at > start:
            self._exec.append(ExecInterval(device, task, start, at))

    def _system_begin(self, pair, key, payload, device, t) -> None:
        self._system_open[(pair, device, key)] = (t, dict(payload))

    def _system_end(self, pair, key, payload, device, t) -> None:
        entry = self._system_open.pop((pair, device, key), None)
        if entry is not None:
            begin_t, merged = entry
            merged.update(payload)
            self._system.append(SystemSpan(
                pair, key, device, begin_t, t, merged,
            ))

    def _close(
        self,
        span: _OpenSpan,
        t: float,
        at: int,
        terminal: str,
        latency_us: Optional[float] = None,
    ) -> None:
        """Close ``span`` at ``t`` (cut ``at``) into its :class:`Span`."""
        segments = []
        phases = iter(span.cuts)
        start, label = next(phases)
        for until, following in phases:
            segments.append(Segment(label, start, until))
            start, label = until, following
        if at > start:
            segments.append(Segment(label, start, at))
        self._spans.append(Span(
            len(self._spans), span.task, span.tenant, span.device,
            span.channel, span.ref, span.start_us, t, terminal, span.epoch,
            tuple(segments), latency_us,
        ))

    def _close_task(
        self,
        task: str,
        t: float,
        terminal: str,
        device: Optional[int] = None,
    ) -> None:
        at = round(t)
        for key in [k for k, q in self._presubmit.items()
                    if q and (device is None or k[0] == device)]:
            queue = self._presubmit[key]
            keep: deque[_OpenSpan] = deque()
            for span in queue:
                if span.task == task:
                    self._close(span, t, at, terminal)
                else:
                    keep.append(span)
            if keep:
                self._presubmit[key] = keep
            else:
                del self._presubmit[key]
        for key in [k for k, s in self._inflight.items()
                    if s.task == task and (device is None or k[0] == device)]:
            self._close(self._inflight.pop(key), t, at, terminal)
        for key in [k for k, entry in self._busy.items()
                    if entry[0] == task and (device is None or k[0] == device)]:
            entry = self._busy.pop(key)
            self._busy_record(entry, at)

    # -- finalization ---------------------------------------------------
    def finish(
        self, end_us: Optional[float] = None, dropped: int = 0
    ) -> FoldResult:
        """Close everything still open and build the immutable result.

        Spans still open close ``truncated`` at ``end_us`` or the last
        record's time, whichever is later; engagement clocks settle and
        free-runs count up to ``end_us`` (default: the last record's
        time).  ``dropped`` is the recorder's eviction count.
        Idempotent: later calls return the same result."""
        if self._result is not None:
            return self._result
        self._result = FoldResult(
            self._finish_spans(
                self._end_us if end_us is None else max(end_us, self._end_us)
            ),
            self._finish_summary(
                self._last_us if end_us is None else end_us, dropped
            ),
        )
        return self._result

    def _finish_summary(self, end: float, dropped: int) -> TraceSummary:
        self._engagement.settle(end)
        parts = [
            self._episodes[device].breakdown(end)
            for device in sorted(self._episodes)
        ] or [_Episodes().breakdown(end)]
        return TraceSummary(
            span_us=(self._first_us, self._last_us),
            records=self._records,
            dropped=dropped,
            kind_counts=dict(sorted(self._kind_counts.items())),
            tasks=dict(sorted(self._tasks.items())),
            breakdown={
                key: sum(part[key] for part in parts) for key in parts[0]
            },
            fault_timeline=self._timeline,
            devices=len(self._device_tags - {None}) or 1,
        )

    def _finish_spans(self, end: float) -> "SpanSet":
        at = round(end)
        for queue in self._presubmit.values():
            for span in queue:
                self._close(span, end, at, "truncated")
        self._presubmit.clear()
        for span in list(self._inflight.values()):
            self._close(span, end, at, "truncated")
        self._inflight.clear()
        for entry in list(self._busy.values()):
            self._busy_record(entry, at)
        self._busy.clear()
        for (device, _task), start in sorted(self._stall_open.items()):
            self._stalls.setdefault(device, []).append((start, at))
        self._stall_open.clear()

        stalls = {
            device: sorted(windows)
            for device, windows in self._stalls.items()
        }
        migrations = self._mig_windows
        if stalls or migrations:
            for span in self._spans:
                _carve_span(span, stalls.get(span.device),
                            migrations.get(span.task))
        exec_intervals = sorted(
            self._exec,
            key=lambda iv: (iv.device, iv.start_us, iv.end_us, iv.task),
        )
        return SpanSet(
            spans=self._spans,
            system_spans=list(self._system),
            migrations=list(self._migrations),
            exec_intervals=exec_intervals,
            end_us=end,
        )


# ----------------------------------------------------------------------
# The result set
# ----------------------------------------------------------------------

@dataclass
class SpanSet:
    """Immutable reconstruction result: spans + the context to read them."""

    spans: list[Span]
    system_spans: list[SystemSpan]
    migrations: list[MigrationLink]
    exec_intervals: list[ExecInterval]
    end_us: float

    # -- selection ------------------------------------------------------
    def select(
        self,
        task: Optional[str] = None,
        device: Optional[int] = None,
        start_us: Optional[float] = None,
        end_us: Optional[float] = None,
        terminal: Optional[str] = None,
    ) -> list[Span]:
        """Spans filtered by task/device/terminal and *ending* inside
        ``[start_us, end_us)`` — the same binning the windowed monitor
        applies to completions."""
        out = []
        for span in self.spans:
            if task is not None and span.task != task:
                continue
            if device is not None and span.device != device:
                continue
            if terminal is not None and span.terminal != terminal:
                continue
            if start_us is not None and span.end_us < start_us:
                continue
            if end_us is not None and span.end_us >= end_us:
                continue
            out.append(span)
        return out

    # -- decomposition --------------------------------------------------
    @staticmethod
    def decompose(spans: Iterable[Span]) -> dict[str, int]:
        """Aggregate components over a span subset (integer µs)."""
        totals = dict.fromkeys(COMPONENTS, 0)
        for span in spans:
            for label, start, end in span.segments:
                totals[label] += end - start
        return totals

    def blame(self, spans: Iterable[Span]) -> dict[str, int]:
        """Interference: µs of other tenants' engine occupancy
        overlapping the given spans' wait segments, per occupant."""
        by_device: dict[int, list[ExecInterval]] = {}
        for interval in self.exec_intervals:
            by_device.setdefault(interval.device, []).append(interval)
        prepared: dict[int, tuple[list[int], list[int], list[ExecInterval]]]
        prepared = {}
        for device, intervals in by_device.items():
            starts = [iv.start_us for iv in intervals]
            max_end: list[int] = []
            running = 0
            for interval in intervals:
                running = max(running, interval.end_us)
                max_end.append(running)
            prepared[device] = (starts, max_end, intervals)
        out: dict[str, int] = {}
        for span in spans:
            entry = prepared.get(span.device)
            if entry is None:
                continue
            starts, max_end, intervals = entry
            for seg in span.segments:
                if seg.label == "exec":
                    continue
                index = bisect_right(starts, seg.end_us) - 1
                while index >= 0 and max_end[index] > seg.start_us:
                    interval = intervals[index]
                    index -= 1
                    if interval.task == span.task:
                        continue
                    overlap = (
                        min(seg.end_us, interval.end_us)
                        - max(seg.start_us, interval.start_us)
                    )
                    if overlap > 0:
                        out[interval.task] = (
                            out.get(interval.task, 0) + overlap
                        )
        return dict(sorted(out.items(), key=lambda kv: (-kv[1], kv[0])))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "format": SPANS_FORMAT,
            "version": SPANS_VERSION,
            "end_us": self.end_us,
            "spans": [span.to_dict() for span in self.spans],
            "system_spans": [asdict(span) for span in self.system_spans],
            "migrations": [asdict(link) for link in self.migrations],
            "exec_intervals": [
                [iv.device, iv.task, iv.start_us, iv.end_us]
                for iv in self.exec_intervals
            ],
        }


def fold_trace(
    trace: Union[TraceRecorder, Iterable[TraceRecord]],
    end_us: Optional[float] = None,
) -> FoldResult:
    """Replay a trace (recorder or record iterable) through one
    :class:`TraceFold`.

    Replay over a ring-buffered recorder covers what the buffer
    retained; feed the fold as a live sink for eviction-independent
    spans."""
    recorder = isinstance(trace, TraceRecorder)
    fold = TraceFold()
    for record in trace.records() if recorder else trace:
        fold.observe(record)
    return fold.finish(end_us, dropped=trace.dropped if recorder else 0)


def build_spans(
    trace: Union[TraceRecorder, Iterable[TraceRecord]],
    end_us: Optional[float] = None,
) -> SpanSet:
    """The :class:`SpanSet` of :func:`fold_trace`."""
    return fold_trace(trace, end_us).spans
