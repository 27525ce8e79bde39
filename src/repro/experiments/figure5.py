"""Figure 5 — standalone Throttle slowdown across request sizes.

The controlled version of Figure 4: Throttle's request size sweeps from
19 µs to 1.7 ms; per-request interception cost makes the engaged Timeslice
scheduler expensive at the small end while both disengaged schedulers stay
flat (paper: DTS <=2%, DFQ <=5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table

THROTTLE_SIZES_US = (19.0, 57.0, 110.0, 303.0, 907.0, 1700.0)
SCHEDULERS = ("timeslice", "disengaged-timeslice", "dfq")


@dataclass(frozen=True)
class Figure5Row:
    request_size_us: float
    direct_round_us: float
    slowdowns: dict[str, float]


def cell_specs(
    duration_us: float,
    warmup_us: float,
    seed: int,
    sizes: Sequence[float],
    schedulers: Sequence[str],
) -> list[CellSpec]:
    """Per size: the direct-access baseline, then one cell per scheduler."""
    specs = []
    for size in sizes:
        workload = WorkloadSpec.throttle(size)
        specs.append(CellSpec.solo(workload, duration_us, warmup_us, seed))
        specs.extend(
            CellSpec(scheduler, (workload,), duration_us, warmup_us, seed)
            for scheduler in schedulers
        )
    return specs


def run(
    duration_us: float = 300_000.0,
    warmup_us: float = 50_000.0,
    seed: int = 0,
    sizes: Sequence[float] = THROTTLE_SIZES_US,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[Figure5Row]:
    specs = cell_specs(duration_us, warmup_us, seed, sizes, schedulers)
    cells = iter(run_cells(specs, **farm))
    rows = []
    for size in sizes:
        base = next(iter(next(cells).values()))
        slowdowns = {}
        for scheduler in schedulers:
            result = next(iter(next(cells).values()))
            slowdowns[scheduler] = result.rounds.mean_us / base.rounds.mean_us
        rows.append(Figure5Row(size, base.rounds.mean_us, slowdowns))
    return rows


def main(duration_us: float = 300_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        ["throttle size (us)", "direct round (us)"] + list(SCHEDULERS),
        [
            [row.request_size_us, row.direct_round_us]
            + [row.slowdowns[s] for s in SCHEDULERS]
            for row in rows
        ],
        title="Figure 5: standalone Throttle slowdown vs direct access",
    )
    print(table)
    return table
