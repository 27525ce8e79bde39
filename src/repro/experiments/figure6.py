"""Figure 6 — fairness of pairwise concurrent executions.

Four application/Throttle pairs (one per paper row), several Throttle
request sizes (19 µs … 1.7 ms), four schedulers (one per paper column).
Each co-runner's round time is normalized to its standalone direct-access
run.  The paper's shape:

* direct access: wildly uneven (the larger-request task wins);
* all three paper schedulers: both co-runners near the fair 2×;
* under DFQ, glxgears suffers noticeably more than Throttle at small
  Throttle sizes (the graphics-arbitration anomaly) and oclParticles gets
  *more* than its share (multi-channel pipelining evades denial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table

PAIR_APPS = ("DCT", "FFT", "glxgears", "oclParticles")
THROTTLE_SIZES_US = (19.0, 110.0, 303.0, 1700.0)
SCHEDULERS = ("direct", "timeslice", "disengaged-timeslice", "dfq")


@dataclass(frozen=True)
class PairOutcome:
    """One cell of Figure 6: an app/Throttle pair under one scheduler."""

    app: str
    throttle_size_us: float
    scheduler: str
    app_alone_us: float
    app_concurrent_us: float
    throttle_alone_us: float
    throttle_concurrent_us: float

    @property
    def app_slowdown(self) -> float:
        return self.app_concurrent_us / self.app_alone_us

    @property
    def throttle_slowdown(self) -> float:
        return self.throttle_concurrent_us / self.throttle_alone_us

    @property
    def efficiency(self) -> float:
        """The paper's concurrency-efficiency metric for this pair."""
        return (
            self.app_alone_us / self.app_concurrent_us
            + self.throttle_alone_us / self.throttle_concurrent_us
        )


def cell_specs(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    apps: Sequence[str] = PAIR_APPS,
    sizes: Sequence[float] = THROTTLE_SIZES_US,
    schedulers: Sequence[str] = SCHEDULERS,
) -> list[CellSpec]:
    """Declare every simulation Figure 6 needs, baselines first.

    Order: per-app solo baselines, per-size Throttle solo baselines, then
    the app x size x scheduler grid — the same order the serial loop used,
    so results assemble positionally.
    """
    app_specs = {name: WorkloadSpec.app(name) for name in apps}
    throttle_specs = {size: WorkloadSpec.throttle(size) for size in sizes}
    specs = [
        CellSpec.solo(app_specs[name], duration_us, warmup_us, seed)
        for name in apps
    ]
    specs.extend(
        CellSpec.solo(throttle_specs[size], duration_us, warmup_us, seed)
        for size in sizes
    )
    for app in apps:
        for size in sizes:
            for scheduler in schedulers:
                specs.append(
                    CellSpec(
                        scheduler=scheduler,
                        workloads=(app_specs[app], throttle_specs[size]),
                        duration_us=duration_us,
                        warmup_us=warmup_us,
                        seed=seed,
                    )
                )
    return specs


def run(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    apps: Sequence[str] = PAIR_APPS,
    sizes: Sequence[float] = THROTTLE_SIZES_US,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[PairOutcome]:
    specs = cell_specs(duration_us, warmup_us, seed, apps, sizes, schedulers)
    cells = run_cells(specs, **farm)
    app_bases = {
        name: next(iter(cells[index].values()))
        for index, name in enumerate(apps)
    }
    throttle_bases = {
        size: next(iter(cells[len(apps) + index].values()))
        for index, size in enumerate(sizes)
    }
    outcomes = []
    pair_cells = iter(cells[len(apps) + len(sizes):])
    for app in apps:
        for size in sizes:
            for scheduler in schedulers:
                results = next(pair_cells)
                app_result = results[app]
                throttle_result = results[f"throttle-{size:g}us"]
                outcomes.append(
                    PairOutcome(
                        app=app,
                        throttle_size_us=size,
                        scheduler=scheduler,
                        app_alone_us=app_bases[app].rounds.mean_us,
                        app_concurrent_us=app_result.rounds.mean_us,
                        throttle_alone_us=throttle_bases[size].rounds.mean_us,
                        throttle_concurrent_us=throttle_result.rounds.mean_us,
                    )
                )
    return outcomes


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    outcomes = run(duration_us=duration_us, seed=seed, **farm)
    rows = [
        [
            outcome.app,
            outcome.throttle_size_us,
            outcome.scheduler,
            outcome.app_slowdown,
            outcome.throttle_slowdown,
        ]
        for outcome in outcomes
    ]
    table = format_table(
        ["app", "throttle size (us)", "scheduler", "app slowdown", "throttle slowdown"],
        rows,
        title="Figure 6: pairwise slowdowns vs standalone direct access "
        "(fair = both near 2.0)",
    )
    print(table)
    return table
