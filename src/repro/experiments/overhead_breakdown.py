"""Where Disengaged Fair Queueing's overhead goes.

The paper attributes DFQ's residual overhead primarily to "idleness during
draining, due to the granularity of polling" (Section 5.2).  This study
decomposes a standalone run's virtual time into free-run, drain-wait,
sampling, and other engagement work, across Throttle request sizes, and
confirms the attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.experiments.runner import build_env, run_workloads
from repro.metrics.tables import format_table
from repro.workloads.throttle import Throttle

THROTTLE_SIZES_US = (19.0, 110.0, 303.0, 1700.0)


@dataclass(frozen=True)
class BreakdownRow:
    request_size_us: float
    slowdown: float
    freerun_fraction: float
    drain_wait_fraction: float
    sampling_fraction: float
    other_engagement_fraction: float


def run(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    sizes: Sequence[float] = THROTTLE_SIZES_US,
    **farm,
) -> list[BreakdownRow]:
    bases = run_cells(
        [
            CellSpec.solo(WorkloadSpec.throttle(size), duration_us,
                          warmup_us, seed)
            for size in sizes
        ],
        **farm,
    )
    rows = []
    for size, base_cell in zip(sizes, bases):
        (base,) = base_cell.values()
        # The DFQ run stays hand-wired: it reads the scheduler's own
        # time breakdown, which a cell's results do not carry.
        env = build_env("dfq", seed=seed)
        workload = Throttle(size)
        run_workloads(env, [workload], duration_us, warmup_us)
        breakdown = env.scheduler.time_breakdown
        accounted = breakdown["freerun_us"] + breakdown["engagement_us"]
        if accounted <= 0:
            continue
        drain = breakdown["drain_wait_us"]
        sampling = breakdown["sampling_us"]
        other = max(0.0, breakdown["engagement_us"] - sampling - drain)
        rows.append(
            BreakdownRow(
                request_size_us=size,
                slowdown=workload.round_stats(warmup_us).mean_us
                / base.rounds.mean_us,
                freerun_fraction=breakdown["freerun_us"] / accounted,
                drain_wait_fraction=drain / accounted,
                sampling_fraction=sampling / accounted,
                other_engagement_fraction=other / accounted,
            )
        )
    return rows


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        [
            "throttle (us)",
            "slowdown",
            "free-run",
            "drain wait",
            "sampling",
            "other engagement",
        ],
        [
            [
                row.request_size_us,
                row.slowdown,
                f"{100 * row.freerun_fraction:.1f}%",
                f"{100 * row.drain_wait_fraction:.1f}%",
                f"{100 * row.sampling_fraction:.1f}%",
                f"{100 * row.other_engagement_fraction:.1f}%",
            ]
            for row in rows
        ],
        title="DFQ time breakdown, standalone Throttle "
        "(paper: drain idleness at polling granularity dominates)",
    )
    print(table)
    return table
