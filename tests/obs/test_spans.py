"""Causal lifecycle spans: reconstruction, decomposition, blame, export.

The invariants pinned here are the layer's contract:

* every span's components sum EXACTLY (integer microseconds, no epsilon)
  to the sum of its segment durations;
* segments telescope — contiguous, non-overlapping, in time order;
* a live :class:`TraceFold` sink and a replay over exported JSONL
  produce byte-identical serializations;
* a fold subscribed during the run is passive (results and the record
  stream are unchanged) and eviction-independent (a capped recorder's
  live fold sees every record before eviction, as the windows do);
* interference blame only ever names *other* tenants.
"""

import io
import json

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.fleet.tenants import FleetTenant
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.spans import (
    COMPONENTS,
    TERMINALS,
    TraceFold,
    build_spans,
    fold_trace,
)
from repro.sim.trace import TraceRecorder

from tests.obs.conftest import traced_run


#: A ring-buffer cap far below the run's record count: heavy eviction.
EVICTING_CAP = 256


@pytest.fixture(scope="module")
def span_run(dfq_run):
    env, trace, _results = dfq_run
    return trace, env.sim.now, build_spans(trace, env.sim.now)


def _canonical(span_set):
    return json.dumps(span_set.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Reconstruction invariants
# ----------------------------------------------------------------------

def test_spans_reconstructed_and_terminals_valid(span_run):
    _trace, _end, span_set = span_run
    assert len(span_set.spans) > 100
    assert {span.terminal for span in span_set.spans} <= set(TERMINALS)
    # The overwhelming majority of a clean run completes.
    complete = [s for s in span_set.spans if s.terminal == "complete"]
    assert len(complete) > 0.9 * len(span_set.spans)


def test_components_sum_exactly_to_segment_total(span_run):
    _trace, _end, span_set = span_run
    for span in span_set.spans:
        segment_total = sum(seg.duration_us for seg in span.segments)
        assert sum(span.components.values()) == segment_total  # exact, ±0
        assert set(span.components) <= set(COMPONENTS)
        assert all(value >= 0 for value in span.components.values())


def test_segments_telescope(span_run):
    _trace, _end, span_set = span_run
    for span in span_set.spans:
        for left, right in zip(span.segments, span.segments[1:]):
            assert left.end_us == right.start_us  # contiguous
            assert left.label != right.label      # merged when equal
        for seg in span.segments:
            assert seg.end_us >= seg.start_us


def test_complete_spans_carry_device_latency(span_run):
    _trace, _end, span_set = span_run
    for span in span_set.spans:
        if span.terminal == "complete":
            assert span.latency_us is not None


def test_live_sink_and_replay_are_byte_identical(span_run):
    trace, end_us, replay_set = span_run
    # Live: a retain=False recorder fans records to the fold as they
    # are emitted; replay: export to JSONL, read back, rebuild.
    live = TraceFold()
    for record in trace.records():
        live(record)
    live_set = live.finish(end_us).spans
    buffer = io.StringIO()
    write_jsonl(trace, buffer)
    buffer.seek(0)
    rebuilt = build_spans(read_jsonl(buffer), end_us)
    assert _canonical(live_set) == _canonical(rebuilt)


def test_live_fold_during_the_run_is_passive(dfq_run, span_run):
    # The fold subscribes; it must not steer the simulation.
    _env, plain_trace, plain_results = dfq_run
    _trace, _end, replay_set = span_run
    fold = TraceFold()
    env, trace, results = traced_run(sinks=(fold,))
    assert results == plain_results
    assert list(trace.records()) == list(plain_trace.records())
    assert _canonical(fold.finish(env.sim.now).spans) == _canonical(replay_set)


def test_capped_recorder_live_fold_sees_every_record(span_run):
    _trace, _end, replay_set = span_run
    fold = TraceFold()
    env, capped, _results = traced_run(max_records=EVICTING_CAP, sinks=(fold,))
    assert capped.dropped > 0  # the cap really evicted
    assert _canonical(fold.finish(env.sim.now).spans) == _canonical(replay_set)


def test_builder_finish_is_idempotent(span_run):
    trace, end_us, _span_set = span_run
    fold = TraceFold()
    for record in trace.records():
        fold(record)
    first = fold.finish(end_us)
    assert fold.finish(end_us) is first
    with pytest.raises(RuntimeError):
        fold.observe(next(iter(trace.records())))


# ----------------------------------------------------------------------
# Selection, decomposition, blame
# ----------------------------------------------------------------------

def test_select_windows_on_span_end(span_run):
    _trace, end_us, span_set = span_run
    window = (10_000.0, 50_000.0)
    chosen = span_set.select(start_us=window[0], end_us=window[1])
    assert chosen
    for span in chosen:
        assert window[0] <= span.end_us < window[1]
    # Task filter composes.
    gears = span_set.select(task="glxgears")
    assert gears and all(span.task == "glxgears" for span in gears)


def test_decompose_totals_match_span_sums(span_run):
    _trace, _end, span_set = span_run
    spans = span_set.select(task="glxgears")
    totals = span_set.decompose(spans)
    assert sum(totals.values()) == sum(
        sum(span.components.values()) for span in spans
    )


def test_blame_names_only_other_tenants(span_run):
    _trace, _end, span_set = span_run
    blame = span_set.blame(span_set.select(task="glxgears"))
    assert "glxgears" not in blame
    assert all(overlap > 0 for overlap in blame.values())
    # Two-tenant run: all interference comes from the other tenant.
    assert set(blame) <= {"BitonicSort"}


def test_system_spans_cover_engagement_episodes(span_run):
    _trace, _end, span_set = span_run
    pairs = {span.pair for span in span_set.system_spans}
    assert "barrier" in pairs
    for span in span_set.system_spans:
        assert span.end_us >= span.start_us


# ----------------------------------------------------------------------
# Fleet: device tags and migration linkage
# ----------------------------------------------------------------------

def fleet_spans(moves=()):
    trace = TraceRecorder()
    env = build_env(devices=2, scheduler="dfq", seed=0, trace=trace)
    workloads = [
        FleetTenant(f"t{i:03d}", request_size_us=800.0) for i in range(4)
    ]
    run_workloads(env, workloads, 120_000.0, 10_000.0, moves=list(moves))
    return build_spans(trace, env.sim.now)


def test_fleet_spans_carry_device_tags():
    span_set = fleet_spans()
    devices = {span.device for span in span_set.spans}
    assert devices == {0, 1}
    for span in span_set.spans:
        assert span.tenant == f"{span.task}@d{span.device}"


def test_spans_carry_the_summary_tenant_key(span_run, fleet_trace_file):
    from repro.obs.export import load_trace

    for trace in (span_run[0], load_trace(str(fleet_trace_file))):
        span_set, summary = fold_trace(trace)
        submitted = {}
        for span in span_set.spans:
            if span.ref is not None:
                submitted[span.tenant] = submitted.get(span.tenant, 0) + 1
        assert submitted == {
            key: task.submits
            for key, task in summary.tasks.items() if task.submits
        }


def test_migration_produces_linked_cross_device_segments():
    span_set = fleet_spans(moves=[(60_000.0, "t000", 1)])
    links = [link for link in span_set.migrations if link.task == "t000"]
    assert len(links) == 1
    link = links[0]
    assert (link.src, link.dst) == (0, 1)
    assert link.cost_us >= 0
    before = [
        s for s in span_set.spans
        if s.task == "t000" and s.migration_epoch == 0
    ]
    after = [
        s for s in span_set.spans
        if s.task == "t000" and s.migration_epoch == 1
    ]
    assert before and after
    assert {s.device for s in before} == {0}
    assert {s.device for s in after} == {1}
    # Boundary-only migration drains in-flight work first, so no span is
    # interrupted: everything on the source device completed normally.
    assert all(s.terminal == "complete" for s in before)


def test_interrupted_span_closes_as_migrated():
    # Synthetic stream: a request is still in flight when its context is
    # torn down mid-migration — the span must close as 'migrated', once.
    from repro.obs import events
    from repro.sim.trace import TraceRecord

    fold = TraceFold()
    for t, src, kind, payload in [
        (10.0, "kernel", events.FAULT,
         {"task": "t0", "channel": 1, "device": 0}),
        (12.0, "kernel", events.REQUEST_SUBMIT,
         {"task": "t0", "channel": 1, "ref": 7, "device": 0}),
        (20.0, "fleet", events.FLEET_MIGRATE_BEGIN,
         {"task": "t0", "src": 0, "dst": 1}),
        (25.0, "gpu.compute", events.CONTEXT_KILLED,
         {"task": "t0", "device": 0}),
        (40.0, "fleet", events.FLEET_MIGRATE_END,
         {"task": "t0", "src": 0, "dst": 1, "cost_us": 15.0}),
    ]:
        fold(TraceRecord(t, src, kind, payload))
    span_set = fold.finish(50.0).spans
    assert [span.terminal for span in span_set.spans] == ["migrated"]
    span = span_set.spans[0]
    assert span.task == "t0" and span.device == 0 and span.ref == 7
    assert sum(span.components.values()) == sum(
        seg.duration_us for seg in span.segments
    )
    assert len(span_set.migrations) == 1


def test_migration_component_charged_to_overlapping_spans():
    span_set = fleet_spans(moves=[(60_000.0, "t000", 1)])
    migrated = sum(
        span.components.get("migration", 0)
        for span in span_set.spans
        if span.task == "t000"
    )
    assert migrated >= 0  # carve-out preserves exactness either way
    for span in span_set.spans:
        assert sum(span.components.values()) == sum(
            seg.duration_us for seg in span.segments
        )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def test_to_dict_round_trips_through_json(span_run):
    _trace, _end, span_set = span_run
    payload = json.loads(json.dumps(span_set.to_dict(), sort_keys=True))
    assert payload["format"] == "repro-spans"
    assert payload["version"] == 1
    assert len(payload["spans"]) == len(span_set.spans)
    sample = payload["spans"][0]
    for key in ("span_id", "task", "device", "terminal", "segments",
                "components", "start_us", "end_us"):
        assert key in sample
