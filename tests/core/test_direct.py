"""Tests for the direct-access baseline."""

from repro.experiments.runner import build_env, run_workloads
from repro.workloads.throttle import Throttle

from tests.core.conftest import run_pair, usage_share


def test_no_pages_ever_protected(fast_costs):
    env, a, b = run_pair("direct", fast_costs, duration_us=20_000.0)
    for channel in env.device.channels.values():
        assert not channel.register_page.protected
    assert env.metrics.counter("faults").total == 0


def test_unfairness_follows_request_size(fast_costs):
    """The paper's motivating observation: per-request round-robin gives
    the larger-request task a proportionally larger share."""
    env, small, large = run_pair(
        "direct", fast_costs, size_a=50.0, size_b=500.0, duration_us=100_000.0
    )
    small_share = usage_share(env, small)
    large_share = usage_share(env, large)
    assert large_share > 0.75
    assert small_share < 0.25


def test_single_task_runs_at_native_speed(fast_costs):
    env = build_env("direct", costs=fast_costs)
    workload = Throttle(100.0)
    run_workloads(env, [workload], 50_000.0, warmup_us=5_000.0)
    stats = workload.round_stats(5_000.0)
    # Round = request + submission cost; no management overhead at all.
    assert stats.mean_us < 101.0
