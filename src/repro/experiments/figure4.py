"""Figure 4 — standalone slowdown of each application under each scheduler.

Every application runs alone; slowdown is the ratio of its mean round time
under a scheduler to that under direct device access.  The paper's shape:
(engaged) Timeslice is costly for small-request applications, Disengaged
Timeslice stays within ~2%, Disengaged Fair Queueing within ~5%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table
from repro.workloads.profiles import APP_PROFILES

SCHEDULERS = ("timeslice", "disengaged-timeslice", "dfq")


@dataclass(frozen=True)
class Figure4Row:
    app: str
    direct_round_us: float
    slowdowns: dict[str, float]  # scheduler name -> slowdown vs direct


def cell_specs(
    duration_us: float,
    warmup_us: float,
    seed: int,
    names: Sequence[str],
    schedulers: Sequence[str],
) -> list[CellSpec]:
    """Per app: the direct-access baseline, then one cell per scheduler."""
    specs = []
    for name in names:
        workload = WorkloadSpec.app(name)
        specs.append(CellSpec.solo(workload, duration_us, warmup_us, seed))
        specs.extend(
            CellSpec(scheduler, (workload,), duration_us, warmup_us, seed)
            for scheduler in schedulers
        )
    return specs


def run(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[Figure4Row]:
    names = list(apps) if apps is not None else sorted(APP_PROFILES)
    specs = cell_specs(duration_us, warmup_us, seed, names, schedulers)
    cells = iter(run_cells(specs, **farm))
    rows = []
    for name in names:
        base = next(iter(next(cells).values()))
        slowdowns = {}
        for scheduler in schedulers:
            result = next(iter(next(cells).values()))
            slowdowns[scheduler] = result.rounds.mean_us / base.rounds.mean_us
        rows.append(
            Figure4Row(
                app=name,
                direct_round_us=base.rounds.mean_us,
                slowdowns=slowdowns,
            )
        )
    return rows


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        ["app", "direct round (us)"] + list(SCHEDULERS),
        [
            [row.app, row.direct_round_us]
            + [row.slowdowns[s] for s in SCHEDULERS]
            for row in rows
        ],
        title="Figure 4: standalone slowdown vs direct access "
        "(paper: engaged TS up to ~1.4x on small requests; DTS <=1.02; DFQ <=1.05)",
    )
    print(table)
    return table
