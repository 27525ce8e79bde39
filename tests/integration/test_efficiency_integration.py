"""End-to-end efficiency: disengagement pays, work conservation pays more."""

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.runner import build_env, run_workloads
from repro.metrics.efficiency import concurrency_efficiency
from repro.workloads.throttle import Throttle

DURATION = 250_000.0
WARMUP = 50_000.0


def _pair_efficiency(scheduler, sleep_ratio=0.0):
    base_a = CellSpec.solo(
        WorkloadSpec.throttle(80.0, name="a"), DURATION, WARMUP
    ).run()["a"]
    base_b = CellSpec.solo(
        WorkloadSpec.throttle(80.0, sleep_ratio=sleep_ratio, name="b"),
        DURATION, WARMUP,
    ).run()["b"]
    env = build_env(scheduler)
    a = Throttle(80.0, name="a")
    b = Throttle(80.0, sleep_ratio=sleep_ratio, name="b")
    run_workloads(env, [a, b], DURATION, WARMUP)
    return concurrency_efficiency(
        [
            (base_a.rounds.mean_us, a.round_stats(WARMUP).mean_us),
            (base_b.rounds.mean_us, b.round_stats(WARMUP).mean_us),
        ]
    )


def test_disengaged_timeslice_beats_engaged_on_small_requests():
    assert _pair_efficiency("disengaged-timeslice") > _pair_efficiency("timeslice")


def test_dfq_work_conservation_on_nonsaturating_mix():
    """At 80% co-runner sleep, DFQ keeps the device busy while timeslice
    schedulers idle through the sleeper's slices (Figure 10)."""
    dfq = _pair_efficiency("dfq", sleep_ratio=0.8)
    timeslice = _pair_efficiency("timeslice", sleep_ratio=0.8)
    assert dfq > timeslice * 1.2


def test_all_managed_schedulers_reasonably_efficient():
    for scheduler in ("timeslice", "disengaged-timeslice", "dfq"):
        efficiency = _pair_efficiency(scheduler)
        assert efficiency > 0.65, f"{scheduler}: efficiency {efficiency:.2f}"
