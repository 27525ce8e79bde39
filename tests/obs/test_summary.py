"""Trace summaries: counts, engagement replay, and diffs.

The summary is reconstructed from the trace alone, so these tests
cross-check it against the *other* observability paths — the metrics
registry and the interception layer's engagement ledger — which observe
the same run through independent hooks.
"""

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.fleet.experiment import tenant_specs
from repro.obs.spans import fold_trace
from repro.obs.summary import TaskSummary, diff_counts, diff_tasks
from repro.obs.windows import split_tenant
from repro.sim.trace import TraceRecorder
from tests.obs.conftest import traced_run


def test_counts_match_metrics_registry(dfq_run):
    env, trace, results = dfq_run
    summary = fold_trace(trace, env.sim.now).summary
    assert set(summary.tasks) == set(results)
    for name, task in summary.tasks.items():
        counters = env.metrics
        assert task.submits == counters.counter("submits").value(name)
        assert task.faults == counters.counter("faults").value(name)
        assert task.denials == counters.counter("denials").value(name)
        latencies = counters.samples("request_latency_us")[name]
        assert task.latency_count == len(latencies)
        if task.latency_count:
            assert task.mean_latency_us == pytest.approx(
                sum(latencies) / len(latencies)
            )


def test_counts_match_workload_results(dfq_run):
    env, trace, results = dfq_run
    summary = fold_trace(trace, env.sim.now).summary
    for name, result in results.items():
        task = summary.tasks[name]
        assert task.faults == result.metrics["faults"]
        assert task.submits == result.metrics["submits"]
        assert task.engaged_us == pytest.approx(result.metrics["engaged_us"])
        assert task.latency_count == result.metrics["request_latency_us_count"]


def test_engagement_replay_matches_ledger(dfq_run):
    env, trace, _results = dfq_run
    summary = fold_trace(trace, env.sim.now).summary
    ledger = env.scheduler.neon.engagement.snapshot(env.sim.now)
    for name, task in summary.tasks.items():
        expected = ledger.get(name)
        assert expected is not None, name
        assert task.engaged_us == pytest.approx(expected["engaged_us"]), name
        assert task.disengaged_us == pytest.approx(
            expected["disengaged_us"]), name
        # DFQ keeps tasks disengaged most of the time — that's the point.
        assert task.disengaged_us > task.engaged_us


def test_engagement_replay_stops_at_exit_like_the_ledger():
    # A planned migration: p0.t000 exits device 0 (at 84.4 ms, an
    # engagement boundary) and resumes on device 1.  Its device-0
    # channels stop accruing at that exit, in the summary as in the
    # device's live ledger.
    trace = TraceRecorder()
    env = build_env("dfq", seed=0, trace=trace, devices=2)
    workloads = [spec.build() for spec in tenant_specs(4)]
    run_workloads(env, workloads, 120_000.0, 30_000.0,
                  moves=((30_000.0, "p0.t000", 1),))
    summary = fold_trace(trace, env.sim.now).summary
    ledgers = {
        stack.device_id: stack.scheduler.neon.engagement.snapshot(env.sim.now)
        for stack in env.stacks
    }
    assert "p0.t000@d0" in summary.tasks and "p0.t000@d1" in summary.tasks
    for key, task in summary.tasks.items():
        name, device = split_tenant(key)
        expected = ledgers[device].get(name)
        assert expected is not None, key
        assert task.engaged_us == pytest.approx(expected["engaged_us"]), key
        assert task.disengaged_us == pytest.approx(
            expected["disengaged_us"]), key


def test_summary_rollup_fields(dfq_run):
    env, trace, _results = dfq_run
    summary = fold_trace(trace, env.sim.now).summary
    assert summary.records == len(trace)
    assert summary.dropped == 0
    assert summary.kind_counts == trace.kind_counts()
    assert summary.span_us == trace.span_us
    assert sum(summary.breakdown.values()) > 0


def test_mean_latency_none_when_no_completions():
    assert TaskSummary("idle").mean_latency_us is None


def test_diff_same_trace_is_empty(dfq_run):
    _env, trace, _results = dfq_run
    assert diff_counts(trace, trace) == {}
    summary = fold_trace(trace).summary
    assert diff_tasks(summary, summary) == {}


def test_diff_across_schedulers_reports_deltas(dfq_run):
    _env, dfq_trace, _results = dfq_run
    _env2, ts_trace, _results2 = traced_run(scheduler="timeslice",
                                            duration_us=100_000.0)
    count_deltas = diff_counts(dfq_trace, ts_trace)
    assert count_deltas["barrier_begin"][1] == 0  # timeslice has no episodes
    assert count_deltas["token_pass"][0] == 0  # dfq passes no tokens
    task_deltas = diff_tasks(
        fold_trace(dfq_trace).summary, fold_trace(ts_trace).summary
    )
    assert "glxgears" in task_deltas


def test_diff_handles_disjoint_tasks(dfq_run):
    _env, trace, _results = dfq_run
    _env2, solo_trace, _results2 = traced_run(apps=("oclParticles",),
                                              duration_us=100_000.0)
    deltas = diff_tasks(
        fold_trace(trace).summary, fold_trace(solo_trace).summary
    )
    # Tasks present on only one side diff against an empty summary.
    assert "oclParticles" in deltas
    assert "glxgears" in deltas
