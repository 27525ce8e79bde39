"""Tests for the streaming window aggregator (repro.obs.windows)."""

import hashlib
import json
import math

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.runner import build_env, run_workloads
from repro.obs import events
from repro.obs.monitor import MonitorSession, monitoring
from repro.obs.slo import SloRule
from repro.obs.windows import (
    TenantWindow,
    WindowAggregator,
    WindowConfig,
    aggregate_trace,
    nearest_rank,
)
from repro.sim.trace import TraceRecord, TraceRecorder
from repro.workloads.apps import make_app


def _rec(time, kind, **payload):
    return TraceRecord(time, "test", kind, payload)


def _completion(time, task, latency_us, service_us=10.0):
    return _rec(
        time, "request_complete",
        task=task, latency_us=latency_us, service_us=service_us,
    )


# ----------------------------------------------------------------------
# WindowConfig
# ----------------------------------------------------------------------

def test_config_validates_window():
    with pytest.raises(ValueError):
        WindowConfig(0.0)
    with pytest.raises(ValueError):
        WindowConfig(100.0, slide_us=30.0)  # not an integer multiple
    config = WindowConfig(100.0, slide_us=25.0)
    assert config.buckets_per_window == 4
    assert WindowConfig(100.0).effective_slide_us == 100.0


# ----------------------------------------------------------------------
# Latency quantiles: nearest rank over the observations, at the bin edge
# ----------------------------------------------------------------------

def _exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _observed(values):
    """One tenant's window as the aggregator builds it from completions."""
    aggregator = WindowAggregator(WindowConfig(1_000.0))
    for value in values:
        aggregator(_completion(1.0, "a", latency_us=value))
    aggregator.finish(1_000.0)
    return aggregator.snapshots[0].tenants["a"]


def test_nearest_rank_matches_exact_sorted_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    for q in (0.0, 0.2, 0.21, 0.5, 0.99, 1.0):
        assert nearest_rank(values, q) == _exact_quantile(values, q)
    with pytest.raises(ValueError):
        nearest_rank(values, 1.5)


def test_fixed_bin_quantiles_within_bin_width_of_exact():
    # A deterministic but irregular stream of latencies.
    values = [((i * 7919) % 997) / 2.0 + 1.0 for i in range(500)]
    bin_us = 25.0
    stats = _observed(values)
    for q in (0.5, 0.9, 0.95, 0.99, 1.0):
        exact = _exact_quantile(values, q)
        binned = stats.latency_quantile(q, bin_us)
        # Upper-edge convention: never understates, overshoots by < 1 bin.
        assert exact <= binned <= exact + bin_us
    latency = stats.to_dict(1_000.0, bin_us)["latency"]
    assert latency["mean_us"] == pytest.approx(sum(values) / len(values))
    assert latency["max_us"] == max(values)


def test_quantiles_far_in_the_tail_keep_their_own_bin_edge():
    # No overflow bin: a huge latency reports its own bin's upper edge,
    # and negative values fall in bin 0.
    stats = _observed([-3.0, 10.0, 12_345_678.0])
    assert stats.latency_quantile(1.0, 50.0) == 12_345_700.0
    assert stats.latency_quantile(0.0, 50.0) == 50.0


def test_fixed_bin_empty_quantile_is_none():
    stats = TenantWindow()
    assert stats.latency_quantile(0.5, 50.0) is None
    assert "latency" not in stats.to_dict(100.0, 50.0)


def test_fixed_bin_merge_matches_combined_stream():
    left, right, combined = TenantWindow(), TenantWindow(), TenantWindow()
    for i in range(40):
        value = float((i * 13) % 700)
        for stats in ((left if i % 2 else right), combined):
            stats.latencies.append(value)
            stats.latency_total_us += value
    left.merge(right)
    assert sorted(left.latencies) == sorted(combined.latencies)
    for q in (0.5, 0.95, 1.0):
        assert (left.latency_quantile(q, 10.0)
                == combined.latency_quantile(q, 10.0))


# ----------------------------------------------------------------------
# Tumbling windows
# ----------------------------------------------------------------------

def test_tumbling_windows_close_on_time():
    aggregator = WindowAggregator(WindowConfig(100.0))
    for t in (10.0, 50.0, 120.0, 250.0):
        aggregator(_completion(t, "a", latency_us=t))
    # Records at 120 and 250 crossed boundaries at 100 and 200.
    assert aggregator.windows_closed == 2
    aggregator.finish(300.0)
    assert aggregator.windows_closed == 3
    first, second, third = aggregator.snapshots
    assert (first.start_us, first.end_us) == (0.0, 100.0)
    assert first.tenants["a"].completions == 2
    assert second.tenants["a"].completions == 1
    assert third.tenants["a"].completions == 1
    # finish() landed exactly on a window boundary: the window is full.
    assert not third.partial


def test_finish_is_idempotent():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_completion(10.0, "a", latency_us=5.0))
    aggregator.finish(50.0)
    aggregator.finish(50.0)
    assert aggregator.windows_closed == 1
    assert aggregator.snapshots[0].partial


def test_share_samples_feed_jain():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(40.0, "share_sample", task="a", usage_us=30.0,
                    interval_us=40.0))
    aggregator(_rec(40.0, "share_sample", task="b", usage_us=30.0,
                    interval_us=40.0))
    aggregator.finish(100.0)
    snapshot = aggregator.snapshots[0]
    assert snapshot.share_basis == "share_usage_us"
    assert snapshot.jain == pytest.approx(1.0)


def test_jain_falls_back_to_service_time():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_completion(10.0, "a", latency_us=5.0, service_us=30.0))
    aggregator(_completion(20.0, "b", latency_us=5.0, service_us=30.0))
    aggregator.finish(100.0)
    snapshot = aggregator.snapshots[0]
    assert snapshot.share_basis == "service_us"
    assert snapshot.jain == pytest.approx(1.0)


def test_empty_window_jain_is_nan():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(10.0, "request_submit", task="a"))
    aggregator.finish(100.0)
    assert math.isnan(aggregator.snapshots[0].jain)


def test_engagement_ledger_splits_spans_across_buckets():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(20.0, "channel_engaged", task="a", channel=1))
    aggregator(_rec(150.0, "channel_disengaged", task="a", channel=1))
    aggregator.finish(200.0)
    first, second = aggregator.snapshots
    assert first.tenants["a"].engaged_us == pytest.approx(80.0)
    assert second.tenants["a"].engaged_us == pytest.approx(50.0)
    assert second.tenants["a"].disengaged_us == pytest.approx(50.0)


def test_exit_and_kill_stop_a_channels_clock():
    aggregator = WindowAggregator(WindowConfig(100.0))
    aggregator(_rec(10.0, "channel_engaged", task="a", channel=1))
    aggregator(_rec(10.0, "channel_engaged", task="b", channel=2))
    aggregator(_rec(30.0, "task_killed", task="a", reason="overuse"))
    aggregator(_rec(40.0, "task_exit", task="b"))
    # A record after the stop does not restart the clock.
    aggregator(_rec(60.0, "channel_disengaged", task="a", channel=1))
    aggregator.finish(200.0)
    first, second = aggregator.snapshots
    assert first.tenants["a"].engaged_us == pytest.approx(20.0)
    assert first.tenants["a"].disengaged_us == 0.0
    assert first.tenants["b"].engaged_us == pytest.approx(30.0)
    assert set(second.tenants) == set()


def test_direct_windows_account_every_channel_us():
    # Under direct access the pages never flip: a channel's clock starts,
    # disengaged, at its first record and runs through every window.
    config = WindowConfig(5_000.0)
    trace = TraceRecorder()
    aggregator = WindowAggregator(config)
    trace.add_sink(aggregator)
    env = build_env("direct", seed=0, trace=trace)
    run_workloads(env, [make_app("glxgears")], duration_us=60_000.0)
    aggregator.finish(env.sim.now)
    first_submit = min(
        record.time for record in trace.records()
        if record.kind == "request_submit"
    )
    full = [
        snapshot for snapshot in aggregator.snapshots
        if not snapshot.partial and snapshot.start_us >= first_submit
    ]
    assert len(full) >= 10
    for snapshot in full:
        stats = snapshot.tenants["glxgears"]
        assert stats.engaged_us == 0.0
        assert stats.disengaged_us == pytest.approx(snapshot.span_us)


def test_monitor_emits_are_ignored_by_the_sink():
    # Every kind the monitor emits back into the stream, read from the
    # registry, so a new monitor kind cannot slip past the sink's filter.
    monitor_kinds = [
        spec.kind for spec in events.EVENT_KINDS.values()
        if spec.layer == "obs" or spec.kind.startswith(("window.", "slo."))
    ]
    assert {"window.close", "slo.violation", "slo.recovered"} <= set(
        monitor_kinds
    )
    for kind in monitor_kinds:
        aggregator = WindowAggregator(WindowConfig(100.0))
        # Consumed, this record would close four windows, start a
        # channel clock and, for a tallied kind, create a tenant.
        aggregator(_rec(450.0, kind, task="a", channel=1, usage_us=1.0))
        assert aggregator.windows_closed == 0, kind
        assert aggregator.open_bucket_start_us == 0.0, kind
        aggregator.finish(50.0)
        assert [s.tenants for s in aggregator.snapshots] == [{}], kind


# ----------------------------------------------------------------------
# Sliding windows
# ----------------------------------------------------------------------

def test_sliding_windows_overlap():
    aggregator = WindowAggregator(WindowConfig(100.0, slide_us=50.0))
    aggregator(_completion(10.0, "a", latency_us=5.0))
    aggregator(_completion(60.0, "a", latency_us=5.0))
    aggregator(_completion(110.0, "a", latency_us=5.0))
    aggregator.finish(200.0)
    # Windows: [0,100), [50,150), [100,200) — the middle one sees the
    # completions at 60 and 110.
    spans = [(s.start_us, s.end_us) for s in aggregator.snapshots]
    assert spans == [(0.0, 100.0), (50.0, 150.0), (100.0, 200.0)]
    counts = [s.tenants["a"].completions for s in aggregator.snapshots]
    assert counts == [2, 2, 1]


# ----------------------------------------------------------------------
# Streaming-sink equivalence + eviction independence (the tentpole
# acceptance property)
# ----------------------------------------------------------------------

def _synthetic_stream(n=4_000, horizon_us=200_000.0):
    """A deterministic multi-tenant stream with all interesting kinds."""
    records = []
    step = horizon_us / n
    for i in range(n):
        t = (i + 1) * step
        task = "a" if i % 3 else "b"
        records.append(_rec(t, "request_submit", task=task))
        records.append(_completion(
            t, task, latency_us=float((i * 37) % 900),
            service_us=float(i % 50),
        ))
        if i % 7 == 0:
            records.append(_rec(
                t, "share_sample", task=task, usage_us=float(i % 20),
                interval_us=step,
            ))
        if i % 11 == 0:
            records.append(_rec(t, "channel_engaged", task=task, channel=i % 5))
        if i % 11 == 5:
            records.append(_rec(
                t, "channel_disengaged", task=task, channel=i % 5
            ))
    return records, horizon_us


def _snapshot_fingerprint(snapshot):
    return (
        snapshot.index, snapshot.start_us, snapshot.end_us, snapshot.partial,
        None if math.isnan(snapshot.jain) else snapshot.jain,
        snapshot.share_basis,
        {name: snapshot.tenants[name].to_dict(
            snapshot.span_us, snapshot.latency_bin_us
        ) for name in sorted(snapshot.tenants)},
    )


def test_live_sink_equals_replay_aggregation():
    records, horizon = _synthetic_stream()
    # Live: records pass through a recorder with the aggregator attached.
    recorder = TraceRecorder()
    live = WindowAggregator(WindowConfig(5_000.0))
    recorder.add_sink(live)
    for record in records:
        recorder.append(record)
    live.finish(horizon)
    # Replay: reconstruct from the recorder's retained ring buffer.
    replayed = aggregate_trace(
        recorder.records(), WindowConfig(5_000.0), end_us=horizon
    )
    assert len(live.snapshots) == len(replayed)
    for left, right in zip(live.snapshots, replayed):
        assert _snapshot_fingerprint(left) == _snapshot_fingerprint(right)


def test_eviction_does_not_affect_live_aggregates():
    records, horizon = _synthetic_stream()
    config = WindowConfig(5_000.0)

    uncapped = TraceRecorder()
    full = WindowAggregator(config)
    uncapped.add_sink(full)
    for record in records:
        uncapped.append(record)
    full.finish(horizon)

    capped = TraceRecorder(max_records=100)  # evicts nearly everything
    windowed = WindowAggregator(config)
    capped.add_sink(windowed)
    for record in records:
        capped.append(record)
    windowed.finish(horizon)

    assert capped.dropped > 0
    assert len(full.snapshots) == len(windowed.snapshots)
    for left, right in zip(full.snapshots, windowed.snapshots):
        assert _snapshot_fingerprint(left) == _snapshot_fingerprint(right)


def test_long_horizon_thousand_windows():
    # 1000 windows over a long horizon with a tiny ring buffer: aggregates
    # must still report every window with per-tenant quantiles intact.
    horizon = 1_000_000.0
    config = WindowConfig(1_000.0, latency_bin_us=20.0)
    recorder = TraceRecorder(max_records=64)
    aggregator = WindowAggregator(config)
    aggregator.keep_snapshots = 1_000
    recorder.add_sink(aggregator)
    n = 20_000
    step = horizon / n
    for i in range(n):
        t = (i + 1) * step
        task = "a" if i % 2 else "b"
        recorder.emit(
            t, "test", "request_complete",
            task=task, latency_us=float((i * 13) % 500), service_us=25.0,
        )
    aggregator.finish(horizon)
    assert recorder.dropped == n - 64
    assert aggregator.windows_closed == 1_000
    assert len(aggregator.snapshots) == 1_000
    for snapshot in aggregator.snapshots:
        assert set(snapshot.tenants) == {"a", "b"}
        for stats in snapshot.tenants.values():
            assert stats.latencies
            assert stats.latency_quantile(0.99, config.latency_bin_us) \
                is not None
        assert not math.isnan(snapshot.jain)


def test_keep_snapshots_caps_memory():
    aggregator = WindowAggregator(WindowConfig(10.0))
    aggregator.keep_snapshots = 3
    for i in range(10):
        aggregator(_completion(float(i * 10 + 5), "a", latency_us=1.0))
    assert aggregator.windows_closed >= 8
    assert len(aggregator.snapshots) == 3
    # windows_closed keeps counting even though old snapshots dropped.
    assert aggregator.snapshots[-1].index == aggregator.windows_closed - 1


# ----------------------------------------------------------------------
# Golden monitor reports: recorded from the dense-histogram windows,
# each in a fresh interpreter.  Observation lists report the same bytes.
# ----------------------------------------------------------------------

#: sha256 of ``Monitor.report()`` (canonical JSON) for :func:`_report`.
GOLDEN_REPORTS = {
    "tumbling": (
        WindowConfig(5_000.0),
        "076550eeaa475207fefdaf11df2bfc9a72e51879035fe55f9a46099bfd44762d",
    ),
    "sliding": (
        WindowConfig(10_000.0, slide_us=2_500.0),
        "8929cbd093a2f94e7fc4837b1ffac7212974bbd85eb3a61733884ab219e4c6ac",
    ),
}


def _report(window: WindowConfig) -> dict:
    """DFQ, glxgears against three BitonicSort, under a p99 400 us rule."""
    workloads = (WorkloadSpec.app("glxgears"), WorkloadSpec.app("BitonicSort"))
    workloads += tuple(
        WorkloadSpec.app("BitonicSort", instance=f"BitonicSort.{n}")
        for n in (2, 3)
    )
    spec = CellSpec(
        scheduler="dfq", workloads=workloads, duration_us=200_000.0,
        warmup_us=50_000.0, seed=0,
    )
    rule = SloRule("p99-ceiling", "tail_latency", 400.0, quantile=0.99)
    session = MonitorSession(window, (rule,), line_sink=lambda line: None)
    with monitoring(session):
        spec.run()
    (monitor,) = session.monitors
    return monitor.report()


@pytest.mark.parametrize("shape", sorted(GOLDEN_REPORTS))
def test_monitor_report_matches_golden_digest(shape):
    window, digest = GOLDEN_REPORTS[shape]
    report = _report(window)
    assert report["violations"] >= 1
    payload = json.dumps(report, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == digest
