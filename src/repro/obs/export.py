"""Trace export and import: JSONL and Chrome trace-event format.

JSONL is the lossless interchange format: a header line describing the
trace, then one record per line.  :func:`read_jsonl` round-trips it back
into a :class:`~repro.sim.trace.TraceRecorder` for the ``repro trace``
subcommands.

Chrome trace-event JSON (:func:`write_chrome_trace`) targets Perfetto /
``chrome://tracing``: instant events for every record, plus synthesized
duration ("X") events for request service times and engagement episodes
so the timeline reads at a glance.  Timestamps are already microseconds —
exactly what the format wants.
"""

from __future__ import annotations

import json
from typing import IO, Optional

from repro.obs import events
from repro.sim.trace import TraceRecord, TraceRecorder

JSONL_FORMAT = "repro-trace"
JSONL_VERSION = 1


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def write_jsonl(trace: TraceRecorder, stream: IO[str]) -> int:
    """Write a header line plus one line per record; returns record count."""
    first, last = trace.span_us
    header = {
        "format": JSONL_FORMAT,
        "version": JSONL_VERSION,
        "records": len(trace),
        "dropped": trace.dropped,
        "span_us": [first, last],
    }
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    count = 0
    for record in trace.records():
        line = {
            "t": record.time,
            "src": record.source,
            "kind": record.kind,
        }
        if record.payload:
            line["p"] = record.payload
        stream.write(json.dumps(line, sort_keys=True) + "\n")
        count += 1
    return count


def read_jsonl(stream: IO[str]) -> TraceRecorder:
    """Parse a JSONL trace back into an (unbounded) recorder.

    The header's ``dropped`` count is restored so analyses over imported
    traces still know the recording was partial.
    """
    header_line = stream.readline()
    if not header_line.strip():
        raise ValueError("empty trace file")
    header = json.loads(header_line)
    if header.get("format") != JSONL_FORMAT:
        raise ValueError(
            f"not a {JSONL_FORMAT} file (format={header.get('format')!r})"
        )
    if header.get("version") != JSONL_VERSION:
        raise ValueError(f"unsupported trace version {header.get('version')!r}")
    trace = TraceRecorder()
    for raw in stream:
        raw = raw.strip()
        if not raw:
            continue
        line = json.loads(raw)
        trace.append(
            TraceRecord(line["t"], line["src"], line["kind"], line.get("p", {}))
        )
    trace.dropped = int(header.get("dropped", 0))
    return trace


def load_trace(path: str) -> TraceRecorder:
    with open(path, "r", encoding="utf-8") as handle:
        return read_jsonl(handle)


def save_trace(trace: TraceRecorder, path: str) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        return write_jsonl(trace, handle)


# ----------------------------------------------------------------------
# Chrome trace-event format (Perfetto, chrome://tracing)
# ----------------------------------------------------------------------

#: Synthetic pid/tid layout: one "process" for the run, one "thread" per
#: task plus dedicated scheduler/system rows.
_PID = 1
_TID_SCHEDULER = 1
_TID_SYSTEM = 2
_TID_TASKS_BASE = 10


def _record_task(record: TraceRecord) -> Optional[str]:
    task = record.payload.get("task")
    return task if isinstance(task, str) else None


def chrome_trace_events(trace: TraceRecorder, spans: bool = False) -> list[dict]:
    """Render records into a Chrome trace-event list.

    * every record becomes an instant ("i") event on its task's row
      (scheduler-layer records on the scheduler row, unattributed ones on
      the system row);
    * ``request_complete`` / ``request_aborted`` records with a
      ``service_us`` payload also become duration ("X") slices;
    * ``barrier_begin`` → ``freerun_start`` pairs become "engagement
      episode" slices on the scheduler row;
    * metadata ("M") events name the rows.
    """
    tids: dict[str, int] = {}

    def tid_for(record: TraceRecord) -> int:
        task = _record_task(record)
        if task is not None:
            if task not in tids:
                tids[task] = _TID_TASKS_BASE + len(tids)
            return tids[task]
        spec = events.EVENT_KINDS.get(record.kind)
        if spec is not None and spec.layer == "scheduler":
            return _TID_SCHEDULER
        return _TID_SYSTEM

    out: list[dict] = []
    episode_begin: Optional[TraceRecord] = None
    for record in trace.records():
        tid = tid_for(record)
        out.append({
            "name": record.kind,
            "ph": "i",
            "s": "t",
            "ts": record.time,
            "pid": _PID,
            "tid": tid,
            "cat": record.kind,
            "args": record.payload,
        })
        if record.kind in (events.REQUEST_COMPLETE, events.REQUEST_ABORTED):
            service_us = record.payload.get("service_us")
            if isinstance(service_us, (int, float)) and service_us > 0:
                out.append({
                    "name": f"request {record.payload.get('ref', '?')}",
                    "ph": "X",
                    "ts": record.time - service_us,
                    "dur": service_us,
                    "pid": _PID,
                    "tid": tid,
                    "cat": "request",
                    "args": record.payload,
                })
        elif record.kind == events.BARRIER_BEGIN:
            episode_begin = record
        elif record.kind == events.FREERUN_START and episode_begin is not None:
            out.append({
                "name": "engagement episode",
                "ph": "X",
                "ts": episode_begin.time,
                "dur": record.time - episode_begin.time,
                "pid": _PID,
                "tid": _TID_SCHEDULER,
                "cat": "episode",
                "args": {
                    "episode": episode_begin.payload.get("episode"),
                    "allowed": record.payload.get("allowed"),
                    "denied": record.payload.get("denied"),
                },
            })
            episode_begin = None

    if spans:
        out.extend(_async_span_events(trace, tids))

    metadata = [
        {"name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
         "args": {"name": "repro simulation"}},
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": _TID_SCHEDULER,
         "args": {"name": "scheduler"}},
        {"name": "thread_name", "ph": "M", "pid": _PID, "tid": _TID_SYSTEM,
         "args": {"name": "system"}},
    ]
    for task in sorted(tids):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tids[task],
            "args": {"name": f"task {task}"},
        })
    return metadata + out


def _async_span_events(trace: TraceRecorder, tids: dict[str, int]) -> list[dict]:
    """Reconstructed lifecycle spans as Perfetto async ("b"/"e") events.

    Each request span becomes one async pair on its task's row, with its
    labeled segments nested under the same id so the decomposition reads
    directly off the timeline.  System spans (engagement barriers,
    sampling windows, migrations) land on the scheduler row.
    """
    from repro.obs.spans import build_spans

    span_set = build_spans(trace)
    out: list[dict] = []
    for span in span_set.spans:
        tid = tids.get(span.task, _TID_SYSTEM)
        common = {"cat": "span", "id": span.span_id, "pid": _PID, "tid": tid}
        name = f"request {span.ref if span.ref is not None else '?'}"
        out.append({
            "name": name, "ph": "b", "ts": span.start_us, **common,
            "args": {
                "task": span.task,
                "device": span.device,
                "terminal": span.terminal,
                "components": span.components,
            },
        })
        for segment in span.segments:
            out.append({
                "name": segment.label, "ph": "b", "ts": segment.start_us,
                **common, "args": {},
            })
            out.append({
                "name": segment.label, "ph": "e", "ts": segment.end_us,
                **common,
            })
        out.append({"name": name, "ph": "e", "ts": span.end_us, **common})
    for index, system in enumerate(span_set.system_spans):
        common = {
            "cat": "span", "id": 1_000_000 + index,
            "pid": _PID, "tid": _TID_SCHEDULER,
        }
        out.append({
            "name": system.pair, "ph": "b", "ts": system.start_us,
            **common, "args": system.payload,
        })
        out.append({
            "name": system.pair, "ph": "e", "ts": system.end_us, **common,
        })
    return out


def write_chrome_trace(
    trace: TraceRecorder, stream: IO[str], spans: bool = False
) -> int:
    """Write the Perfetto-loadable JSON object; returns event count.

    The top-level ``metadata`` object carries the recorder's eviction
    counter, so a viewer (or a strict exporter) can tell a complete
    timeline from one whose head fell out of the ring buffer.  With
    ``spans`` true, reconstructed lifecycle spans ride along as async
    events (:mod:`repro.obs.spans`).
    """
    trace_events = chrome_trace_events(trace, spans=spans)
    json.dump(
        {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "metadata": {
                "format": JSONL_FORMAT,
                "records": len(trace),
                "dropped": trace.dropped,
            },
        },
        stream,
        sort_keys=True,
    )
    stream.write("\n")
    return len(trace_events)
