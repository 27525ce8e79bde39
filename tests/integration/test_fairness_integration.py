"""End-to-end fairness: the paper's central claim, across schedulers.

Two co-runners with a 10x request-size asymmetry must each land near the
fair 2x slowdown under every managed scheduler, while direct access lets
the large-request task crush the small one.
"""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.runner import build_env, run_workloads
from repro.workloads.throttle import Throttle

DURATION = 300_000.0
WARMUP = 60_000.0


def _pair_slowdowns(scheduler):
    small_base = CellSpec.solo(
        WorkloadSpec.throttle(60.0, name="small"), DURATION, WARMUP
    ).run()["small"]
    large_base = CellSpec.solo(
        WorkloadSpec.throttle(600.0, name="large"), DURATION, WARMUP
    ).run()["large"]
    env = build_env(scheduler)
    small = Throttle(60.0, name="small")
    large = Throttle(600.0, name="large")
    run_workloads(env, [small, large], DURATION, WARMUP)
    return (
        small.round_stats(WARMUP).mean_us / small_base.rounds.mean_us,
        large.round_stats(WARMUP).mean_us / large_base.rounds.mean_us,
    )


def test_direct_access_is_unfair():
    small, large = _pair_slowdowns("direct")
    assert small > 4.0  # the small-request task is crushed
    assert large < 1.5


@pytest.mark.parametrize(
    "scheduler", ["timeslice", "disengaged-timeslice", "dfq", "dfq-hw"]
)
def test_paper_schedulers_restore_fairness(scheduler):
    small, large = _pair_slowdowns(scheduler)
    assert small < 3.0, f"{scheduler}: small-task slowdown {small:.2f}"
    assert large < 3.0, f"{scheduler}: large-task slowdown {large:.2f}"
    assert max(small, large) / min(small, large) < 1.6


@pytest.mark.parametrize("scheduler", ["engaged-fq", "drr", "credit"])
def test_related_work_baselines_restore_fairness(scheduler):
    small, large = _pair_slowdowns(scheduler)
    assert small < 3.2
    assert large < 3.2
