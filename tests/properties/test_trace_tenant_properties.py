"""Every record producer stamps its payload's tenant key on the record.

A :class:`~repro.sim.trace.TraceRecord` computes ``tenant`` once, when
it is built, and every consumer of the stream trusts it from then on.
These properties check it against :func:`~repro.sim.trace.tenant_key`
for each way a record comes to be: :meth:`TraceRecorder.emit`,
:meth:`DeviceTraceView.emit`, :meth:`DeviceTraceView.append` (payload
with and without ``device``) and a JSONL export/import round trip.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import read_jsonl, write_jsonl
from repro.sim.trace import (
    DeviceTraceView,
    TraceRecord,
    TraceRecorder,
    tenant_key,
)

#: JSON-safe values, so every payload survives the JSONL round trip.
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(0, 3), max_size=2),
)

#: Payloads with or without a ``task`` (a string or any other value) and
#: with or without a ``device``.
payloads = st.fixed_dictionaries(
    {},
    optional={
        "task": st.one_of(st.text(max_size=8), _values),
        "device": st.one_of(st.integers(0, 9), _values),
        "channel": st.integers(0, 9),
        "ref": st.integers(0, 99),
    },
)


def _keyed(records):
    for record in records:
        assert record.tenant == tenant_key(record.payload), record


@settings(max_examples=80)
@given(payload=payloads)
def test_recorder_emit_stamps_the_tenant_key(payload):
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append)
    recorder.emit(1.0, "src", "kind", **payload)
    _keyed(seen)
    _keyed(recorder.records())


@settings(max_examples=80)
@given(payload=payloads, device=st.integers(0, 7))
def test_device_view_stamps_the_tenant_key(payload, device):
    base = TraceRecorder()
    view = DeviceTraceView(base, device)
    untagged = {k: v for k, v in payload.items() if k != "device"}
    view.emit(1.0, "src", "kind", **payload)
    view.append(TraceRecord(2.0, "src", "kind", dict(payload)))
    view.append(TraceRecord(3.0, "src", "kind", untagged))
    records = list(base.records())
    assert len(records) == 3
    _keyed(records)
    # An untagged payload gains the view's device, and its key with it.
    if isinstance(payload.get("task"), str):
        assert records[2].tenant == f"{payload['task']}@d{device}"


@settings(max_examples=60)
@given(stream=st.lists(st.tuples(st.floats(0.0, 1e6), payloads), max_size=8))
def test_jsonl_round_trip_keeps_the_tenant_key(stream):
    recorder = TraceRecorder()
    for time, payload in stream:
        recorder.emit(time, "src", "kind", **payload)
    buffer = io.StringIO()
    write_jsonl(recorder, buffer)
    buffer.seek(0)
    imported = list(read_jsonl(buffer).records())
    _keyed(imported)
    assert [r.tenant for r in imported] == [
        r.tenant for r in recorder.records()
    ]


def test_records_compare_by_value():
    record = TraceRecord(1.0, "s", "k", {"task": "a"})
    assert record == TraceRecord(1.0, "s", "k", {"task": "a"})
    assert record != TraceRecord(1.0, "s", "k", {"task": "b"})
    assert record != TraceRecord(2.0, "s", "k", {"task": "a"})
    assert TraceRecord(1.0, "s", "k") == TraceRecord(1.0, "s", "k", {})
