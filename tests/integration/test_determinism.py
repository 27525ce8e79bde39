"""Whole-system determinism: identical seeds give identical histories."""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec


def _signature(seed):
    results = CellSpec(
        "dfq",
        (WorkloadSpec.app("DCT"), WorkloadSpec.throttle(250.0, name="thr")),
        duration_us=120_000.0,
        warmup_us=20_000.0,
        seed=seed,
    ).run()
    return {
        name: (result.rounds.count, result.rounds.mean_us, result.requests_submitted)
        for name, result in results.items()
    }


def test_same_seed_identical_results():
    assert _signature(42) == _signature(42)


def test_different_seed_differs():
    # Workload jitter derives from the seed, so histories diverge.
    assert _signature(1) != _signature(2)


@pytest.mark.parametrize("scheduler", ["direct", "disengaged-timeslice"])
def test_determinism_across_schedulers(scheduler):
    def run():
        results = CellSpec(
            scheduler,
            (WorkloadSpec.throttle(100.0, name="a"),
             WorkloadSpec.throttle(400.0, name="b")),
            duration_us=100_000.0,
            warmup_us=10_000.0,
            seed=7,
        ).run()
        return {name: result.rounds.count for name, result in results.items()}

    assert run() == run()
