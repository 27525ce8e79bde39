"""Robustness: tasks exiting at awkward moments must not wedge anything."""

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.gpu.request import RequestKind
from repro.workloads.base import Workload
from repro.workloads.throttle import Throttle


class ShortLived(Workload):
    """Runs a few requests, then exits normally."""

    def __init__(self, name="short", requests=5, size=100.0):
        super().__init__(name)
        self.count = requests
        self.size = size

    def body(self):
        channel = self.open_channel(RequestKind.COMPUTE)
        for _ in range(self.count):
            start = self.sim.now
            yield from self.submit(channel, self.size)
            self.rounds.record(start, self.sim.now)


@pytest.mark.parametrize(
    "scheduler",
    ["timeslice", "disengaged-timeslice", "dfq", "engaged-fq", "drr",
     "credit"],
)
def test_exit_mid_run_does_not_wedge_survivor(scheduler, quick_costs):
    env = build_env(scheduler, costs=quick_costs)
    fleeting = ShortLived(requests=10)
    survivor = Throttle(100.0, name="survivor")
    run_workloads(env, [fleeting, survivor], 150_000.0, 0.0)
    assert not fleeting.killed
    assert len(fleeting.rounds) == 10
    # The survivor must own the device after the exit: its late-phase
    # throughput approaches standalone.
    late = survivor.rounds.stats(warmup_us=100_000.0)
    assert late.count > 300


@pytest.mark.parametrize("scheduler", ["disengaged-timeslice", "dfq"])
def test_churn_of_many_short_tasks(scheduler, quick_costs):
    env = build_env(scheduler, costs=quick_costs)
    tasks = [ShortLived(name=f"burst{i}", requests=3, size=50.0) for i in range(8)]
    steady = Throttle(200.0, name="steady")
    run_workloads(env, tasks + [steady], 200_000.0, 0.0)
    for task in tasks:
        assert len(task.rounds) == 3, task.name
    assert len(steady.rounds) > 200
    assert env.device.live_channel_count == 1  # only the survivor remains


def test_all_tasks_exit_then_new_task_arrives(quick_costs):
    env = build_env("dfq", costs=quick_costs)
    first = ShortLived(name="first", requests=5)
    first.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=30_000.0)
    assert not first.task.alive
    late = Throttle(100.0, name="late")
    late.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=80_000.0)
    assert len(late.rounds) > 100  # the scheduler woke back up


def test_exit_during_own_timeslice(quick_costs):
    env = build_env("disengaged-timeslice", costs=quick_costs)
    # Short enough to exit within its first slice.
    fleeting = ShortLived(requests=2, size=50.0)
    peer = Throttle(100.0, name="peer")
    run_workloads(env, [fleeting, peer], 100_000.0, 0.0)
    assert len(fleeting.rounds) == 2
    assert len(peer.rounds) > 100
