"""Figure 9 — fairness under nonsaturating workloads.

DCT runs against a Throttle that sleeps between requests (off ratios up to
80%).  Fairness does not require equal suffering: execution is fair as
long as nobody slows down much beyond 2×.  The paper's shape: under
Disengaged Fair Queueing, Throttle does not suffer and DCT *benefits* from
the co-runner's idleness (work conservation); the timeslice schedulers
idle the device during Throttle's unused slice time, hurting DCT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table

SLEEP_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8)
#: Throttle request size comparable to DCT's mean request (66 µs): with
#: matched per-request sizes the round-robin estimator charges both tasks
#: equal shares, so DFQ issues no spurious denials and the figure isolates
#: the work-conservation question (which is its point).
THROTTLE_SIZE_US = 66.0
SCHEDULERS = ("direct", "timeslice", "disengaged-timeslice", "dfq")
APP = "DCT"


@dataclass(frozen=True)
class Figure9Cell:
    scheduler: str
    sleep_ratio: float
    app_slowdown: float
    throttle_slowdown: float
    app_alone_us: float
    app_concurrent_us: float
    throttle_alone_us: float
    throttle_concurrent_us: float

    @property
    def efficiency(self) -> float:
        return (
            self.app_alone_us / self.app_concurrent_us
            + self.throttle_alone_us / self.throttle_concurrent_us
        )


def cell_specs(
    duration_us: float,
    warmup_us: float,
    seed: int,
    ratios: Sequence[float],
    schedulers: Sequence[str],
    throttle_size_us: float,
) -> list[CellSpec]:
    """The DCT baseline, then per ratio: Throttle baseline + pair grid."""
    app = WorkloadSpec.app(APP)
    specs = [CellSpec.solo(app, duration_us, warmup_us, seed)]
    for ratio in ratios:
        throttle = WorkloadSpec.throttle(
            throttle_size_us, sleep_ratio=ratio, name="throttle-ns"
        )
        specs.append(CellSpec.solo(throttle, duration_us, warmup_us, seed))
        specs.extend(
            CellSpec(scheduler, (app, throttle), duration_us, warmup_us, seed)
            for scheduler in schedulers
        )
    return specs


def run(
    duration_us: float = 500_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    ratios: Sequence[float] = SLEEP_RATIOS,
    schedulers: Sequence[str] = SCHEDULERS,
    throttle_size_us: float = THROTTLE_SIZE_US,
    **farm,
) -> list[Figure9Cell]:
    specs = cell_specs(
        duration_us, warmup_us, seed, ratios, schedulers, throttle_size_us
    )
    produced = iter(run_cells(specs, **farm))
    app_base = next(iter(next(produced).values()))
    cells = []
    for ratio in ratios:
        throttle_base = next(iter(next(produced).values()))
        for scheduler in schedulers:
            results = next(produced)
            cells.append(
                Figure9Cell(
                    scheduler=scheduler,
                    sleep_ratio=ratio,
                    app_slowdown=results[APP].rounds.mean_us
                    / app_base.rounds.mean_us,
                    throttle_slowdown=results["throttle-ns"].rounds.mean_us
                    / throttle_base.rounds.mean_us,
                    app_alone_us=app_base.rounds.mean_us,
                    app_concurrent_us=results[APP].rounds.mean_us,
                    throttle_alone_us=throttle_base.rounds.mean_us,
                    throttle_concurrent_us=results["throttle-ns"].rounds.mean_us,
                )
            )
    return cells


def main(duration_us: float = 500_000.0, seed: int = 0, **farm) -> str:
    cells = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        ["scheduler", "sleep ratio", "DCT slowdown", "throttle slowdown"],
        [
            [cell.scheduler, cell.sleep_ratio, cell.app_slowdown, cell.throttle_slowdown]
            for cell in cells
        ],
        title="Figure 9: DCT vs nonsaturating Throttle "
        "(fair = nobody far beyond 2x; DFQ lets DCT benefit from idleness)",
    )
    print(table)
    return table
