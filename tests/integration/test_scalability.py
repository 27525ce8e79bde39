"""Four-way concurrency (Figure 8's shape) as an integration test."""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.runner import build_env, run_workloads

DURATION = 400_000.0
WARMUP = 80_000.0


@pytest.mark.parametrize("scheduler", ["disengaged-timeslice", "dfq"])
def test_four_way_slowdowns_near_4x(scheduler):
    specs = [WorkloadSpec.app(name) for name in ("BinarySearch", "DCT", "FFT")]
    specs.append(WorkloadSpec.throttle(1000.0, name="thr"))
    baselines = {}
    for spec in specs:
        baselines.update(CellSpec.solo(spec, DURATION, WARMUP).run())
    env = build_env(scheduler)
    workloads = [spec.build() for spec in specs]
    run_workloads(env, workloads, DURATION, WARMUP)
    for workload in workloads:
        slowdown = (
            workload.round_stats(WARMUP).mean_us
            / baselines[workload.name].rounds.mean_us
        )
        assert 1.0 < slowdown < 7.5, (
            f"{scheduler}/{workload.name}: slowdown {slowdown:.2f}"
        )


def test_direct_access_unfair_at_four_way():
    specs = [
        WorkloadSpec.app("DCT"),
        WorkloadSpec.app("FFT"),
        WorkloadSpec.app("BinarySearch"),
        WorkloadSpec.throttle(1000.0, name="thr"),
    ]
    base_dct = CellSpec.solo(specs[0], DURATION, WARMUP).run()["DCT"]
    env = build_env("direct")
    workloads = [spec.build() for spec in specs]
    run_workloads(env, workloads, DURATION, WARMUP)
    dct = next(w for w in workloads if w.name == "DCT")
    slowdown = dct.round_stats(WARMUP).mean_us / base_dct.rounds.mean_us
    assert slowdown > 6.0  # crushed by the large-request co-runner
