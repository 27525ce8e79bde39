"""Tests for the Disengaged Timeslice scheduler."""

from repro.experiments.runner import build_env, run_workloads
from repro.workloads.adversarial import InfiniteKernel
from repro.workloads.throttle import Throttle

from tests.core.conftest import run_pair, usage_share


def test_holder_runs_without_faults(fast_costs):
    """The token holder gets direct access: far fewer faults than
    submissions (the whole point of disengagement)."""
    env, a, b = run_pair("disengaged-timeslice", fast_costs, duration_us=60_000.0)
    submits = env.metrics.counter("submits").total
    assert submits > 100
    assert env.metrics.counter("faults").total < submits / 10


def test_fairness_matches_engaged_variant(fast_costs):
    env, small, large = run_pair(
        "disengaged-timeslice", fast_costs, size_a=50.0, size_b=500.0,
        duration_us=200_000.0,
    )
    assert 0.35 < usage_share(env, small) < 0.65


def test_cheaper_than_engaged_for_small_requests(fast_costs):
    def standalone(scheduler):
        env = build_env(scheduler, costs=fast_costs)
        workload = Throttle(20.0)
        run_workloads(env, [workload], 60_000.0, 10_000.0)
        return workload.round_stats(10_000.0).mean_us

    direct = standalone("direct")
    engaged = standalone("timeslice")
    disengaged = standalone("disengaged-timeslice")
    assert disengaged < engaged
    assert disengaged / direct < 1.08  # paper: ~2%


def test_reengages_at_slice_boundaries(fast_costs):
    env, a, b = run_pair("disengaged-timeslice", fast_costs, duration_us=60_000.0)
    # Pages flip protected<->unprotected as the token moves.
    protect_counts = [
        channel.register_page.protect_count
        for channel in env.device.channels.values()
    ]
    assert all(count >= 3 for count in protect_counts)


def test_runaway_killed_at_reengagement(fast_costs):
    env = build_env("disengaged-timeslice", costs=fast_costs)
    attacker = InfiniteKernel(normal_size_us=50.0, normal_requests=5)
    victim = Throttle(100.0, name="victim")
    run_workloads(env, [attacker, victim], 200_000.0, 0.0)
    assert attacker.killed
    assert not victim.killed
    victim_late = victim.rounds.stats(warmup_us=100_000.0)
    assert victim_late.count > 50  # victim recovered after the kill


def test_non_holder_blocks_until_its_slice(fast_costs):
    env, a, b = run_pair("disengaged-timeslice", fast_costs, duration_us=30_000.0)
    # Blocked tasks fault once, then sleep in the handler: fault counts
    # stay near the number of token handoffs, not the request count.
    handoffs = env.scheduler.slices_granted
    assert env.metrics.counter("faults").total <= handoffs * 3 + 4
