"""Tests for the experiment runner scaffolding."""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.runner import build_env, run_workloads
from repro.workloads.throttle import Throttle


def test_unknown_scheduler_rejected():
    with pytest.raises(KeyError, match="unknown scheduler"):
        build_env("no-such-scheduler")


def test_scheduler_instance_accepted():
    from repro.core.direct import DirectAccess

    env = build_env(DirectAccess())
    assert isinstance(env.scheduler, DirectAccess)


def test_measure_returns_result_per_workload():
    results = CellSpec(
        "direct",
        (WorkloadSpec.throttle(50.0, name="a"),
         WorkloadSpec.throttle(100.0, name="b")),
        duration_us=20_000.0,
        warmup_us=2_000.0,
    ).run()
    assert set(results) == {"a", "b"}
    for result in results.values():
        assert result.rounds.count > 0
        assert result.requests_submitted > 0
        assert not result.killed
        assert result.ground_truth_usage_us > 0


def test_solo_baseline_runs_direct():
    cell = CellSpec.solo(
        WorkloadSpec.throttle(100.0), duration_us=20_000.0, warmup_us=2_000.0
    )
    assert cell.scheduler == "direct"
    (result,) = cell.run().values()
    assert 100.0 <= result.rounds.mean_us < 101.0


def test_trace_kinds_enable_recording():
    env = build_env("direct", trace_kinds=["request_submit"])
    workload = Throttle(100.0)
    run_workloads(env, [workload], 5_000.0, 0.0)
    assert len(env.trace) > 10
    assert all(r.kind == "request_submit" for r in env.trace.records())
