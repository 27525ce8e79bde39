"""JSONL round-trip and Chrome trace-event export."""

import io
import json

import pytest

from repro.obs import events
from repro.obs.export import (
    JSONL_FORMAT,
    JSONL_VERSION,
    chrome_trace_events,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim.trace import TraceRecorder


def small_trace():
    trace = TraceRecorder()
    trace.emit(10.0, "gpu0", events.REQUEST_SUBMIT,
               task="a", channel=1, ref=1, size_us=50.0, request_kind="compute")
    trace.emit(60.0, "gpu0", events.REQUEST_COMPLETE,
               task="a", channel=1, ref=1, service_us=50.0, latency_us=50.0)
    trace.emit(70.0, "kernel", events.FAULT, task="a", channel=1, ref=2)
    trace.emit(80.0, "dfq", events.BARRIER_BEGIN, episode=1)
    trace.emit(95.0, "dfq", events.FREERUN_START,
               allowed=1, denied=0, freerun_us=100.0)
    return trace


def test_jsonl_round_trip():
    trace = small_trace()
    buffer = io.StringIO()
    count = write_jsonl(trace, buffer)
    assert count == len(trace)

    buffer.seek(0)
    restored = read_jsonl(buffer)
    assert len(restored) == len(trace)
    assert restored.kind_counts() == trace.kind_counts()
    assert restored.span_us == trace.span_us
    original = list(trace.records())
    for left, right in zip(original, restored.records()):
        assert (left.time, left.source, left.kind) == (
            right.time, right.source, right.kind)
        assert left.payload == right.payload


def test_jsonl_header_carries_dropped_count():
    trace = TraceRecorder(max_records=2)
    for t in (1.0, 2.0, 3.0):
        trace.emit(t, "x", events.FAULT, task="a")
    buffer = io.StringIO()
    write_jsonl(trace, buffer)
    buffer.seek(0)
    header = json.loads(buffer.readline())
    assert header["format"] == JSONL_FORMAT
    assert header["version"] == JSONL_VERSION
    assert header["dropped"] == 1
    buffer.seek(0)
    assert read_jsonl(buffer).dropped == 1


def test_read_jsonl_rejects_foreign_files():
    with pytest.raises(ValueError, match="empty"):
        read_jsonl(io.StringIO(""))
    with pytest.raises(ValueError, match="format"):
        read_jsonl(io.StringIO('{"format": "something-else"}\n'))
    with pytest.raises(ValueError, match="version"):
        read_jsonl(io.StringIO(
            '{"format": "%s", "version": 99}\n' % JSONL_FORMAT))


def test_chrome_events_structure():
    trace = small_trace()
    chrome = chrome_trace_events(trace)
    phases = [event["ph"] for event in chrome]
    # Metadata first, then one instant per record plus synthetic slices.
    assert phases.count("i") == len(trace)
    assert phases.count("M") >= 3  # process + scheduler/system rows + tasks
    slices = [event for event in chrome if event["ph"] == "X"]
    names = {event["name"] for event in slices}
    assert "request 1" in names
    assert "engagement episode" in names
    request_slice = next(e for e in slices if e["name"] == "request 1")
    assert request_slice["ts"] == 10.0  # complete at 60 minus 50µs service
    assert request_slice["dur"] == 50.0
    episode = next(e for e in slices if e["name"] == "engagement episode")
    assert episode["ts"] == 80.0
    assert episode["dur"] == 15.0


def test_chrome_episodes_pair_within_a_device(fleet_trace_file):
    from repro.obs.export import load_trace

    trace = load_trace(str(fleet_trace_file))
    starts = list(trace.records(kind=events.FREERUN_START))
    assert {record.payload["device"] for record in starts} == {0, 1}
    episodes = [
        event for event in chrome_trace_events(trace)
        if event.get("cat") == "episode"
    ]
    # One slice per freerun_start, each opened by its own device's
    # barrier and carrying that device's episode number.
    assert len(episodes) == len(starts)
    barriers = {
        (record.payload["device"], record.payload["episode"]): record.time
        for record in trace.records(kind=events.BARRIER_BEGIN)
    }
    for event, start in zip(episodes, starts):
        key = (start.payload["device"], event["args"]["episode"])
        assert event["ts"] == barriers[key]
        assert event["ts"] + event["dur"] == start.time


def test_chrome_rows_split_by_task_and_layer():
    trace = small_trace()
    chrome = chrome_trace_events(trace)
    by_name = {}
    for event in chrome:
        if event["ph"] == "M" and event["name"] == "thread_name":
            by_name[event["args"]["name"]] = event["tid"]
    assert "task a" in by_name
    assert "scheduler" in by_name
    barrier = next(e for e in chrome if e.get("cat") == "barrier_begin")
    assert barrier["tid"] == by_name["scheduler"]
    fault = next(e for e in chrome if e.get("cat") == "fault")
    assert fault["tid"] == by_name["task a"]


def test_write_chrome_trace_is_valid_json():
    buffer = io.StringIO()
    count = write_chrome_trace(small_trace(), buffer)
    document = json.loads(buffer.getvalue())
    assert document["displayTimeUnit"] == "ms"
    assert len(document["traceEvents"]) == count


def test_full_run_round_trips_and_exports(dfq_run):
    _env, trace, _results = dfq_run
    buffer = io.StringIO()
    write_jsonl(trace, buffer)
    buffer.seek(0)
    restored = read_jsonl(buffer)
    assert restored.kind_counts() == trace.kind_counts()

    chrome = io.StringIO()
    write_chrome_trace(restored, chrome)
    document = json.loads(chrome.getvalue())
    assert len(document["traceEvents"]) > len(trace)


def test_chrome_metadata_carries_dropped_count():
    capped = TraceRecorder(max_records=2)
    for t in (1.0, 2.0, 3.0):
        capped.emit(t, "x", events.FAULT, task="a")
    buffer = io.StringIO()
    write_chrome_trace(capped, buffer)
    document = json.loads(buffer.getvalue())
    assert document["metadata"]["format"] == JSONL_FORMAT
    assert document["metadata"]["records"] == 2
    assert document["metadata"]["dropped"] == 1

    buffer = io.StringIO()
    write_chrome_trace(small_trace(), buffer)
    assert json.loads(buffer.getvalue())["metadata"]["dropped"] == 0
