"""Tests for the related-work baseline schedulers (SFQ, DRR, Credit)."""

import pytest

from tests.core.conftest import run_pair, usage_share


@pytest.mark.parametrize("scheduler", ["engaged-fq", "drr", "credit"])
def test_all_requests_intercepted(scheduler, fast_costs):
    env, a, b = run_pair(scheduler, fast_costs, duration_us=50_000.0)
    for channel in env.device.channels.values():
        assert channel.register_page.protected
    assert env.metrics.counter("faults").total > 0


@pytest.mark.parametrize("scheduler", ["engaged-fq", "drr", "credit"])
def test_fair_shares_despite_size_asymmetry(scheduler, fast_costs):
    env, small, large = run_pair(
        scheduler, fast_costs, size_a=50.0, size_b=500.0, duration_us=250_000.0
    )
    share = usage_share(env, small)
    assert 0.3 < share < 0.7, f"{scheduler}: small task share {share:.2f}"


@pytest.mark.parametrize("scheduler", ["engaged-fq", "drr", "credit"])
def test_progress_for_both_tasks(scheduler, fast_costs):
    env, a, b = run_pair(scheduler, fast_costs, duration_us=100_000.0)
    assert len(a.rounds) > 10
    assert len(b.rounds) > 10


def test_sfq_orders_by_start_tag(fast_costs):
    env, a, b = run_pair("engaged-fq", fast_costs, duration_us=50_000.0)
    assert env.scheduler.dispatched_requests > 0
    assert env.scheduler.system_vt > 0


def test_drr_runs_rounds(fast_costs):
    env, a, b = run_pair("drr", fast_costs, duration_us=50_000.0)
    assert env.scheduler.rounds > 10


def test_credit_replenishes(fast_costs):
    env, a, b = run_pair("credit", fast_costs, duration_us=50_000.0)
    assert env.scheduler.replenishments > 2


def test_drr_kills_runaway(fast_costs):
    from repro.experiments.runner import build_env, run_workloads
    from repro.workloads.adversarial import InfiniteKernel
    from repro.workloads.throttle import Throttle

    env = build_env("drr", costs=fast_costs)
    attacker = InfiniteKernel(normal_size_us=50.0, normal_requests=3)
    victim = Throttle(100.0, name="victim")
    run_workloads(env, [attacker, victim], 150_000.0, 0.0)
    assert attacker.killed
    assert not victim.killed
