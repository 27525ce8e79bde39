"""Figure 10 — efficiency under nonsaturating workloads.

Same runs as Figure 9, reported as concurrency efficiency.  At an 80%
Throttle sleep ratio the paper measured losses vs direct access of 36%
(engaged Timeslice), 34% (Disengaged Timeslice), and essentially 0%
(Disengaged Fair Queueing) — the work-conservation payoff of DFQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments import figure9
from repro.metrics.tables import format_table


@dataclass(frozen=True)
class Figure10Row:
    scheduler: str
    sleep_ratio: float
    efficiency: float
    loss_vs_direct: float


def run(
    duration_us: float = 500_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    ratios: Sequence[float] = figure9.SLEEP_RATIOS,
    schedulers: Sequence[str] = figure9.SCHEDULERS,
    **farm,
) -> list[Figure10Row]:
    cells = figure9.run(
        duration_us,
        warmup_us,
        seed,
        ratios,
        schedulers,
        **farm,
    )
    direct = {
        cell.sleep_ratio: cell.efficiency
        for cell in cells
        if cell.scheduler == "direct"
    }
    rows = []
    for cell in cells:
        reference = direct[cell.sleep_ratio]
        loss = max(0.0, 1.0 - cell.efficiency / reference)
        rows.append(
            Figure10Row(cell.scheduler, cell.sleep_ratio, cell.efficiency, loss)
        )
    return rows


def main(duration_us: float = 500_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        ["scheduler", "sleep ratio", "efficiency", "loss vs direct"],
        [
            [
                row.scheduler,
                row.sleep_ratio,
                row.efficiency,
                f"{100 * row.loss_vs_direct:.0f}%",
            ]
            for row in rows
        ],
        title="Figure 10: efficiency with nonsaturating Throttle "
        "(paper @80% sleep: TS -36%, DTS -34%, DFQ ~0%)",
    )
    print(table)
    return table
