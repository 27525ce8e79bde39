"""Scheduler observability discipline (DESIGN.md).

Schedulers must obtain device knowledge only through the interception
layer: faults, reference-counter polls, command-queue scans, and the one
sanctioned §6.2 query (the currently running context, used for runaway
attribution).  Ground-truth *usage accounting* is reserved for metrics and
the explicitly-labeled vendor-statistics ablation (dfq-hw).
"""

import pytest

from repro.experiments.runner import build_env
from repro.gpu.device import GpuDevice
from repro.workloads.throttle import Throttle


@pytest.mark.parametrize(
    "scheduler",
    ["timeslice", "disengaged-timeslice", "dfq", "engaged-fq", "drr", "credit"],
)
def test_schedulers_never_read_ground_truth_usage(scheduler, monkeypatch, quick_costs):
    env = build_env(scheduler, costs=quick_costs)

    def forbidden(self, *args, **kwargs):
        raise AssertionError(
            f"{scheduler} read ground-truth usage accounting"
        )

    monkeypatch.setattr(GpuDevice, "task_usage", forbidden)
    workloads = [Throttle(60.0, name="a"), Throttle(240.0, name="b")]
    for workload in workloads:
        workload.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=100_000.0)  # raises if any scheduler path reads usage


def test_hw_ablation_is_allowed_to_read_usage(quick_costs):
    env = build_env("dfq-hw", costs=quick_costs)
    workloads = [Throttle(60.0, name="a"), Throttle(240.0, name="b")]
    for workload in workloads:
        workload.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=100_000.0)
    assert env.scheduler._usage_marks  # it did consult the vendor stats
