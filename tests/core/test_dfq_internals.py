"""Unit tests for Disengaged Fair Queueing internals."""

import pytest

from repro.core.disengaged_fq import DisengagedFairQueueing
from repro.experiments.runner import build_env, run_workloads
from repro.gpu.request import RequestKind
from repro.workloads.apps import make_app
from repro.workloads.throttle import Throttle


def _attached(costs=None):
    scheduler = DisengagedFairQueueing()
    env = build_env(scheduler, costs=costs)
    return env, scheduler


def test_sample_target_tripled_for_combined_apps(quick_costs):
    env, scheduler = _attached(quick_costs)
    combined = make_app("oclParticles")
    compute_only = make_app("DCT")
    combined.start(env.sim, env.kernel, env.rng)
    compute_only.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=5_000.0)
    base = env.kernel.costs.sample_max_requests
    assert scheduler._sample_target(compute_only.task) == base
    assert scheduler._sample_target(combined.task) == base * 3


def test_freerun_length_scales_with_active_tasks():
    env, scheduler = _attached()
    nominal = env.kernel.costs.sample_max_us
    multiplier = env.kernel.costs.freerun_multiplier
    assert scheduler._freerun_length(0) == multiplier * nominal
    assert scheduler._freerun_length(1) == multiplier * nominal
    assert scheduler._freerun_length(2) == 2 * multiplier * nominal
    # The paper's 5.2/5.3 numbers: 25 ms standalone, 50 ms pairwise.
    assert scheduler._freerun_length(1) == pytest.approx(25_000.0)
    assert scheduler._freerun_length(2) == pytest.approx(50_000.0)


def test_activity_detection_sees_only_submitters(quick_costs):
    env, scheduler = _attached(quick_costs)
    busy = Throttle(100.0, name="busy")
    quiet = Throttle(100.0, name="quiet")
    busy.start(env.sim, env.kernel, env.rng)
    quiet.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=30_000.0)
    # Kill quiet's process so it stops submitting, then mark a fresh
    # engagement boundary and run one more interval.
    quiet.task.process.kill()
    for channel in scheduler.neon.live_channels():
        scheduler.neon.mark_engagement(channel)
    env.sim.run(until=60_000.0)
    # Activity detection consumes ring-buffer scan results (normally paid
    # for by the episode's drain); perform the scans explicitly here.
    for channel in scheduler.neon.live_channels():
        for _cost in scheduler.neon.scan_channel(channel):
            pass
    activity = scheduler._detect_activity()
    assert activity.get(busy.task.task_id)
    assert not activity.get(quiet.task.task_id)


def test_denied_task_waits_out_the_interval(quick_costs):
    env, scheduler = _attached(quick_costs)
    hog = Throttle(900.0, name="hog")
    meek = Throttle(30.0, name="meek")
    run_workloads(env, [hog, meek], 200_000.0, 0.0)
    assert scheduler.denials > 0
    # Denials must actually block: the hog's blocked faults show up as
    # long rounds (p95 far above its native request time).
    assert hog.round_stats(40_000.0).p95_us > 2_000.0


def test_vt_table_tracks_live_tasks_only(quick_costs):
    env, scheduler = _attached(quick_costs)
    workload = Throttle(100.0)
    workload.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=20_000.0)
    assert len(scheduler.vt) >= 1
    env.kernel.exit_task(workload.task)
    assert scheduler.vt.get(workload.task.task_id) == scheduler.vt.system_vt


def test_waiters_released_on_task_exit(quick_costs):
    env, scheduler = _attached(quick_costs)
    task = env.kernel.create_task("blocked")
    peer = env.kernel.create_task("peer")
    event = scheduler.add_waiter(task)
    untouched = scheduler.add_waiter(peer)
    env.kernel.exit_task(task)
    env.sim.run(until=1.0)
    assert event.triggered
    assert not untouched.triggered


def test_hw_variant_skips_sampling(quick_costs):
    env = build_env("dfq-hw", costs=quick_costs)
    workload = Throttle(50.0)
    run_workloads(env, [workload], 60_000.0, 0.0)
    assert env.scheduler.time_breakdown["sampling_us"] == 0.0
    assert env.scheduler.episodes > 3
