"""Tests for the engaged Timeslice scheduler."""

import math

from repro.experiments.runner import build_env, run_workloads
from repro.workloads.adversarial import InfiniteKernel
from repro.workloads.throttle import Throttle

from tests.core.conftest import run_pair, usage_share


def test_all_channels_stay_protected(fast_costs):
    env, a, b = run_pair("timeslice", fast_costs, duration_us=30_000.0)
    for channel in env.device.channels.values():
        assert channel.register_page.protected


def test_every_request_faults(fast_costs):
    env, a, b = run_pair("timeslice", fast_costs, duration_us=30_000.0)
    # Every submission was intercepted; at most one fault per task may
    # still be blocked in the handler when the clock stops.
    faults = env.metrics.counter("faults").total
    submits = env.metrics.counter("submits").total
    assert faults >= submits
    assert faults - submits <= 2


def test_fair_shares_despite_size_asymmetry(fast_costs):
    env, small, large = run_pair(
        "timeslice", fast_costs, size_a=50.0, size_b=500.0,
        duration_us=200_000.0,
    )
    assert 0.35 < usage_share(env, small) < 0.65
    assert 0.35 < usage_share(env, large) < 0.65


def test_mutual_exclusion_within_slice(fast_costs):
    """Only the token holder's requests run: no interleaving mid-slice."""
    env, a, b = run_pair("timeslice", fast_costs, duration_us=60_000.0)
    # Reconstruct the service interleaving from request finish times.
    requests = sorted(
        (request for workload in (a, b) for request in workload.requests
         if request.finish_time is not None and not request.aborted),
        key=lambda request: request.finish_time,
    )
    owner_sequence = [request.channel.task.name for request in requests]
    # Count alternations; exclusive slices mean long same-owner runs, far
    # fewer alternations than per-request round-robin would produce.
    alternations = sum(
        1 for x, y in zip(owner_sequence, owner_sequence[1:]) if x != y
    )
    assert alternations < len(owner_sequence) / 5


def test_runaway_request_kills_task(fast_costs):
    env = build_env("timeslice", costs=fast_costs)
    attacker = InfiniteKernel(normal_size_us=50.0, normal_requests=5)
    victim = Throttle(100.0, name="victim")
    results = run_workloads(env, [attacker, victim], 200_000.0, 0.0)
    assert attacker.killed
    assert results["infinite-kernel"].kill_reason is not None
    assert not victim.killed
    assert len(victim.rounds) > 100


def test_overuse_is_charged_for_slice_overrun(fast_costs):
    """A task whose requests overrun slice boundaries accrues overuse."""
    env = build_env("timeslice", costs=fast_costs)
    # Requests of 0.9 timeslices: the paper's motivating overuse example.
    hog = Throttle(fast_costs.timeslice_us * 0.9, name="hog")
    peer = Throttle(100.0, name="peer")
    run_workloads(env, [hog, peer], 100_000.0, 0.0)
    assert env.scheduler.overuse.accrued(hog.task) >= 0.0
    # Despite the hog's awkward request size, shares remain balanced.
    assert 0.3 < usage_share(env, hog) < 0.7


def test_token_rotates_among_tasks(fast_costs):
    env, a, b = run_pair("timeslice", fast_costs, duration_us=60_000.0)
    assert env.scheduler.slices_granted >= 10


def test_single_task_standalone_overhead_is_bounded():
    # Paper-default periods: the 30 ms timeslice amortizes drain idleness,
    # leaving mostly the per-request interception cost.
    base_env = build_env("direct")
    base = Throttle(100.0)
    run_workloads(base_env, [base], 200_000.0, 40_000.0)
    ts_env = build_env("timeslice")
    managed = Throttle(100.0)
    run_workloads(ts_env, [managed], 200_000.0, 40_000.0)
    slowdown = (
        managed.round_stats(40_000.0).mean_us / base.round_stats(40_000.0).mean_us
    )
    assert 1.0 <= slowdown < 1.25
