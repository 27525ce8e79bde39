"""The tentpole invariant: the trace alone reproduces the scheduler's
live ``time_breakdown`` overhead accounting, read off the one trace
fold's summary."""

import pytest

from repro.obs import events
from repro.obs.cli import overhead_report
from repro.obs.export import load_trace
from repro.obs.spans import fold_trace
from repro.sim.trace import TraceRecorder
from tests.obs.conftest import traced_run

BREAKDOWN_KEYS = ("drain_wait_us", "sampling_us", "engagement_us", "freerun_us")


def breakdown(trace, end_us=None):
    return fold_trace(trace, end_us).summary.breakdown


def test_trace_reproduces_live_breakdown_dfq(dfq_run):
    env, trace, _results = dfq_run
    derived = breakdown(trace, end_us=env.sim.now)
    live = env.scheduler.time_breakdown
    assert set(derived) == set(BREAKDOWN_KEYS)
    for key in BREAKDOWN_KEYS:
        assert derived[key] == pytest.approx(live[key]), key
    # The run actually exercised every component of the breakdown.
    assert all(derived[key] > 0 for key in BREAKDOWN_KEYS)


def test_trace_reproduces_live_breakdown_dfq_hw():
    env, trace, _results = traced_run(scheduler="dfq-hw")
    derived = breakdown(trace, end_us=env.sim.now)
    live = env.scheduler.time_breakdown
    for key in BREAKDOWN_KEYS:
        assert derived[key] == pytest.approx(live[key]), key


def test_empty_trace_yields_zero_breakdown():
    derived = breakdown(TraceRecorder())
    assert derived == {key: 0.0 for key in BREAKDOWN_KEYS}


def test_trailing_freerun_excluded():
    trace = TraceRecorder()
    trace.emit(0.0, "dfq", events.BARRIER_BEGIN, episode=1)
    trace.emit(10.0, "dfq", events.FREERUN_START,
               allowed=1, denied=0, freerun_us=100.0)
    # Run ends mid-free-run: the scheduled span must not be counted,
    # matching the live accounting (which adds it only on completion).
    partial = breakdown(trace, end_us=50.0)
    assert partial["engagement_us"] == 10.0
    assert partial["freerun_us"] == 0.0
    complete = breakdown(trace, end_us=110.0)
    assert complete["freerun_us"] == 100.0


def test_episodes_pair_within_a_device():
    # Two devices' episodes interleave; each freerun_start closes its
    # own device's barrier, never the other device's.
    trace = TraceRecorder()
    trace.emit(0.0, "dfq", events.BARRIER_BEGIN, episode=1, device=0)
    trace.emit(5.0, "dfq", events.BARRIER_BEGIN, episode=1, device=1)
    trace.emit(10.0, "dfq", events.FREERUN_START, freerun_us=50.0, device=0)
    trace.emit(30.0, "dfq", events.FREERUN_START, freerun_us=50.0, device=1)
    derived = breakdown(trace, end_us=100.0)
    assert derived["engagement_us"] == 10.0 + 25.0
    assert derived["freerun_us"] == 100.0


def test_fleet_breakdown_is_the_sum_over_devices(fleet_trace_file):
    trace = load_trace(str(fleet_trace_file))
    end_us = trace.span_us[1]
    summary = fold_trace(trace, end_us).summary
    assert summary.devices == 2
    per_device = []
    for device in (0, 1):
        sub = TraceRecorder()
        for record in trace.records():
            if record.payload.get("device", 0) == device:
                sub.append(record)
        per_device.append(breakdown(sub, end_us))
    assert per_device[0]["engagement_us"] > 0
    assert summary.breakdown == {
        key: sum(part[key] for part in per_device) for key in BREAKDOWN_KEYS
    }


def test_overhead_report_lines(dfq_run):
    env, trace, _results = dfq_run
    lines = overhead_report(breakdown(trace, end_us=env.sim.now), env.sim.now)
    text = "\n".join(lines)
    assert "engagement" in text
    assert "drain wait" in text
    assert "sampling" in text
    assert "free-run" in text
    assert "%" in text
