"""The typed event-kind registry: completeness and integrity."""

import pytest

from repro.obs import events
from tests.obs.conftest import traced_run


def test_every_spec_is_self_consistent():
    for kind, spec in events.EVENT_KINDS.items():
        assert spec.kind == kind
        assert spec.layer in (
            "gpu", "kernel", "neon", "scheduler", "faults", "obs", "fleet"
        )
        assert spec.description
        assert all(isinstance(field, str) for field in spec.payload)


def test_registered_kinds_sorted_and_complete():
    kinds = events.registered_kinds()
    assert list(kinds) == sorted(kinds)
    assert set(kinds) == set(events.EVENT_KINDS)


def test_double_registration_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        events.register_event_kind("fault", "kernel", "dup")


def test_unknown_layer_rejected():
    with pytest.raises(ValueError, match="unknown layer"):
        events.register_event_kind("brand_new_kind", "userspace", "nope")
    assert "brand_new_kind" not in events.EVENT_KINDS


def test_constant_names_round_trip():
    names = events.constant_names()
    assert names  # non-empty
    for name in names:
        assert getattr(events, name) in events.EVENT_KINDS


def test_traced_run_emits_only_registered_kinds(dfq_run):
    _env, trace, _results = dfq_run
    seen = set(trace.kind_counts())
    assert seen  # the run actually traced something
    assert seen <= set(events.registered_kinds())


def test_traced_run_covers_every_layer(dfq_run):
    _env, trace, _results = dfq_run
    layers = {events.EVENT_KINDS[kind].layer for kind in trace.kind_counts()}
    assert layers == {"gpu", "kernel", "neon", "scheduler"}


def test_declared_payload_fields_are_emitted(dfq_run):
    # Every record carries at least the fields its spec declares
    # (specs allow extras; they may not under-deliver).
    _env, trace, _results = dfq_run
    optional = {("request_complete", "latency_us")}  # absent on aborted rounds
    for record in trace.records():
        spec = events.EVENT_KINDS[record.kind]
        for field in spec.payload:
            if (record.kind, field) in optional:
                continue
            assert field in record.payload, (record.kind, field)


def test_timeslice_run_uses_its_own_kinds():
    _env, trace, _results = traced_run(scheduler="timeslice",
                                       duration_us=100_000.0)
    counts = trace.kind_counts()
    assert counts.get("token_pass", 0) > 0
    assert counts.get("overuse_charge", 0) > 0
    assert "barrier_begin" not in counts  # no DFQ episodes here


def test_docs_list_every_kind_in_its_layer_row():
    from pathlib import Path

    doc = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
    rows = {}
    for line in doc.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            rows.setdefault(cells[0].strip("`"), cells[1])
    for kind, spec in events.EVENT_KINDS.items():
        assert f"`{kind}`" in rows.get(spec.layer, ""), (kind, spec.layer)
