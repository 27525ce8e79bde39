"""Tests for trace recording."""

from repro.sim.trace import NullRecorder, TraceRecorder


def test_emit_and_query():
    recorder = TraceRecorder()
    recorder.emit(1.0, "gpu", "submit", ref=1)
    recorder.emit(2.0, "gpu", "complete", ref=1)
    recorder.emit(3.0, "kernel", "submit", ref=2)
    assert len(recorder) == 3
    submits = list(recorder.records(kind="submit"))
    assert [r.time for r in submits] == [1.0, 3.0]
    gpu_records = list(recorder.records(source="gpu"))
    assert len(gpu_records) == 2
    both = list(recorder.records(kind="submit", source="kernel"))
    assert len(both) == 1
    assert both[0].payload == {"ref": 2}


def test_kind_filter_drops_at_emission():
    recorder = TraceRecorder(kinds=["keep"])
    recorder.emit(1.0, "x", "keep")
    recorder.emit(2.0, "x", "drop")
    assert len(recorder) == 1


def test_null_recorder_drops_everything():
    recorder = NullRecorder()
    recorder.emit(1.0, "x", "anything")
    assert len(recorder) == 0


def test_clear():
    recorder = TraceRecorder()
    recorder.emit(1.0, "x", "k")
    recorder.clear()
    assert len(recorder) == 0


def test_records_expose_their_fields():
    recorder = TraceRecorder()
    recorder.emit(1.0, "x", "k", a=1)
    record = next(recorder.records())
    assert record.time == 1.0
    assert record.source == "x"
    assert record.kind == "k"
    assert record.payload["a"] == 1


def test_ring_buffer_caps_and_counts_drops():
    recorder = TraceRecorder(max_records=3)
    for i in range(5):
        recorder.emit(float(i), "x", "k", i=i)
    assert len(recorder) == 3
    assert recorder.dropped == 2
    # Oldest records were evicted: only the newest three remain.
    assert [r.time for r in recorder.records()] == [2.0, 3.0, 4.0]


def test_kind_filter_rejects_do_not_count_as_drops():
    recorder = TraceRecorder(kinds=["keep"], max_records=2)
    recorder.emit(1.0, "x", "drop")
    recorder.emit(2.0, "x", "keep")
    assert recorder.dropped == 0
    recorder.emit(3.0, "x", "keep")
    recorder.emit(4.0, "x", "keep")
    assert recorder.dropped == 1


def test_invalid_cap_rejected():
    import pytest

    with pytest.raises(ValueError):
        TraceRecorder(max_records=0)


def test_records_time_window_is_inclusive():
    recorder = TraceRecorder()
    for t in (1.0, 2.0, 3.0, 4.0):
        recorder.emit(t, "x", "k")
    window = [r.time for r in recorder.records(start_us=2.0, end_us=3.0)]
    assert window == [2.0, 3.0]


def test_records_kinds_filter():
    recorder = TraceRecorder()
    recorder.emit(1.0, "x", "a")
    recorder.emit(2.0, "x", "b")
    recorder.emit(3.0, "x", "c")
    picked = [r.kind for r in recorder.records(kinds=("a", "c"))]
    assert picked == ["a", "c"]


def test_kind_counts_and_span():
    recorder = TraceRecorder()
    assert recorder.span_us == (0.0, 0.0)
    recorder.emit(5.0, "x", "a")
    recorder.emit(7.0, "x", "b")
    recorder.emit(9.0, "x", "a")
    assert recorder.kind_counts() == {"a": 2, "b": 1}
    assert recorder.span_us == (5.0, 9.0)


def test_clear_resets_dropped():
    recorder = TraceRecorder(max_records=1)
    recorder.emit(1.0, "x", "k")
    recorder.emit(2.0, "x", "k")
    assert recorder.dropped == 1
    recorder.clear()
    assert len(recorder) == 0
    assert recorder.dropped == 0


# ----------------------------------------------------------------------
# Live sinks (streaming observability)
# ----------------------------------------------------------------------

def test_sink_receives_every_emitted_record():
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append)
    recorder.emit(1.0, "x", "a", i=1)
    recorder.emit(2.0, "x", "b", i=2)
    assert [(r.time, r.kind) for r in seen] == [(1.0, "a"), (2.0, "b")]


def test_sink_sees_records_the_ring_buffer_evicts():
    recorder = TraceRecorder(max_records=2)
    seen = []
    recorder.add_sink(seen.append)
    for i in range(10):
        recorder.emit(float(i), "x", "k", i=i)
    assert len(recorder) == 2
    assert recorder.dropped == 8
    # The sink saw the full stream regardless of eviction.
    assert [r.time for r in seen] == [float(i) for i in range(10)]


def test_sink_respects_kind_filter():
    recorder = TraceRecorder(kinds=["keep"])
    seen = []
    recorder.add_sink(seen.append)
    recorder.emit(1.0, "x", "drop")
    recorder.emit(2.0, "x", "keep")
    assert [r.kind for r in seen] == ["keep"]


def test_retain_false_fans_out_without_buffering():
    recorder = TraceRecorder(retain=False)
    seen = []
    recorder.add_sink(seen.append)
    for i in range(5):
        recorder.emit(float(i), "x", "k")
    assert len(recorder) == 0
    assert recorder.dropped == 0
    assert len(seen) == 5


def test_append_delivers_to_sinks_too():
    source = TraceRecorder()
    source.emit(1.0, "x", "k")
    record = next(source.records())
    sinked = TraceRecorder()
    seen = []
    sinked.add_sink(seen.append)
    sinked.append(record)
    assert seen == [record]
    assert len(sinked) == 1


def test_remove_sink_stops_delivery():
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append)
    recorder.emit(1.0, "x", "k")
    recorder.remove_sink(seen.append)
    recorder.emit(2.0, "x", "k")
    assert len(seen) == 1


def test_add_sink_rejects_non_callable():
    import pytest

    recorder = TraceRecorder()
    with pytest.raises(TypeError):
        recorder.add_sink("not callable")
