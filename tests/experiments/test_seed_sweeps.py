"""Seed stability of a key result."""

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells


def test_dfq_fairness_is_seed_stable():
    """The headline fairness number should not be a seed artifact."""
    app = WorkloadSpec.app("DCT")
    pair = (app, WorkloadSpec.throttle(500.0, name="thr"))
    seeds = (0, 1, 2)
    specs = []
    for seed in seeds:
        specs += [
            CellSpec.solo(app, 150_000.0, 30_000.0, seed),
            CellSpec("dfq", pair, 150_000.0, 30_000.0, seed),
        ]
    cells = run_cells(specs)
    slowdowns = [
        results["DCT"].rounds.mean_us / base["DCT"].rounds.mean_us
        for base, results in zip(cells[::2], cells[1::2])
    ]
    mean = sum(slowdowns) / len(slowdowns)
    assert 1.4 < mean < 2.8
    assert (max(slowdowns) - min(slowdowns)) / mean < 0.5
