"""Figure 8 — scalability to four concurrent applications.

One large-request Throttle plus three small-request applications
(BinarySearch, DCT, FFT).  Fair sharing should hold each task near the
expected 4–5× slowdown; efficiency losses vs direct access were 13%
(engaged Timeslice), 8% (Disengaged Timeslice) and 7% (DFQ) in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.efficiency import concurrency_efficiency
from repro.metrics.tables import format_table

FOUR_WAY_APPS = ("BinarySearch", "DCT", "FFT")
THROTTLE_SIZE_US = 1700.0
SCHEDULERS = ("direct", "timeslice", "disengaged-timeslice", "dfq")


@dataclass(frozen=True)
class Figure8Row:
    scheduler: str
    slowdowns: dict[str, float]
    efficiency: float

    @property
    def mean_slowdown(self) -> float:
        return sum(self.slowdowns.values()) / len(self.slowdowns)


def cell_specs(
    duration_us: float,
    warmup_us: float,
    seed: int,
    schedulers: Sequence[str],
) -> tuple[list[str], list[CellSpec]]:
    """Solo baselines for all four workloads, then one cell per scheduler."""
    throttle_name = f"throttle-{THROTTLE_SIZE_US:g}us"
    names = list(FOUR_WAY_APPS) + [throttle_name]
    workloads = tuple(
        WorkloadSpec.app(name) for name in FOUR_WAY_APPS
    ) + (WorkloadSpec.throttle(THROTTLE_SIZE_US),)
    specs = [
        CellSpec.solo(workload, duration_us, warmup_us, seed)
        for workload in workloads
    ]
    specs.extend(
        CellSpec(scheduler, workloads, duration_us, warmup_us, seed)
        for scheduler in schedulers
    )
    return names, specs


def run(
    duration_us: float = 600_000.0,
    warmup_us: float = 100_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[Figure8Row]:
    names, specs = cell_specs(duration_us, warmup_us, seed, schedulers)
    cells = run_cells(specs, **farm)
    baselines = {
        name: next(iter(cells[index].values()))
        for index, name in enumerate(names)
    }
    rows = []
    for offset, scheduler in enumerate(schedulers):
        results = cells[len(names) + offset]
        slowdowns = {
            name: results[name].rounds.mean_us / baselines[name].rounds.mean_us
            for name in names
        }
        efficiency = concurrency_efficiency(
            (baselines[name].rounds.mean_us, results[name].rounds.mean_us)
            for name in names
        )
        rows.append(Figure8Row(scheduler, slowdowns, efficiency))
    return rows


def main(duration_us: float = 600_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    names = list(rows[0].slowdowns)
    table = format_table(
        ["scheduler"] + [f"{name} slowdown" for name in names] + ["efficiency"],
        [
            [row.scheduler]
            + [row.slowdowns[name] for name in names]
            + [row.efficiency]
            for row in rows
        ],
        title="Figure 8: four-way fairness (expected ~4-5x each) and efficiency",
    )
    print(table)
    return table
