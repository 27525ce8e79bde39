"""Figure 7 — concurrency efficiency of the Figure 6 pairs.

Efficiency = Σᵢ tᵢ(alone)/tᵢ(concurrent).  Paper's average/max losses vs
direct access: engaged Timeslice 19%/42%, Disengaged Timeslice 10%/35%,
Disengaged Fair Queueing 4%/18%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments import figure6
from repro.metrics.tables import format_table


@dataclass(frozen=True)
class EfficiencySummary:
    scheduler: str
    mean_efficiency: float
    mean_loss_vs_direct: float
    max_loss_vs_direct: float


def run(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    apps: Sequence[str] = figure6.PAIR_APPS,
    sizes: Sequence[float] = figure6.THROTTLE_SIZES_US,
    schedulers: Sequence[str] = figure6.SCHEDULERS,
    **farm,
) -> tuple[list[figure6.PairOutcome], list[EfficiencySummary]]:
    outcomes = figure6.run(
        duration_us,
        warmup_us,
        seed,
        apps,
        sizes,
        schedulers,
        **farm,
    )
    direct = {
        (outcome.app, outcome.throttle_size_us): outcome.efficiency
        for outcome in outcomes
        if outcome.scheduler == "direct"
    }
    summaries = []
    for scheduler in schedulers:
        if scheduler == "direct":
            continue
        losses = []
        efficiencies = []
        for outcome in outcomes:
            if outcome.scheduler != scheduler:
                continue
            reference = direct[(outcome.app, outcome.throttle_size_us)]
            efficiencies.append(outcome.efficiency)
            losses.append(max(0.0, 1.0 - outcome.efficiency / reference))
        summaries.append(
            EfficiencySummary(
                scheduler=scheduler,
                mean_efficiency=sum(efficiencies) / len(efficiencies),
                mean_loss_vs_direct=sum(losses) / len(losses),
                max_loss_vs_direct=max(losses),
            )
        )
    return outcomes, summaries


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    outcomes, summaries = run(duration_us=duration_us, seed=seed, **farm)
    cell_rows = [
        [
            outcome.app,
            outcome.throttle_size_us,
            outcome.scheduler,
            outcome.efficiency,
        ]
        for outcome in outcomes
    ]
    table = format_table(
        ["app", "throttle size (us)", "scheduler", "efficiency"],
        cell_rows,
        title="Figure 7: concurrency efficiency (1.0 = no loss)",
    )
    summary = format_table(
        ["scheduler", "mean efficiency", "mean loss vs direct", "max loss"],
        [
            [
                s.scheduler,
                s.mean_efficiency,
                f"{100 * s.mean_loss_vs_direct:.0f}%",
                f"{100 * s.max_loss_vs_direct:.0f}%",
            ]
            for s in summaries
        ],
        title="Summary (paper: TS 19%/42%, DTS 10%/35%, DFQ 4%/18%)",
    )
    print(table)
    print()
    print(summary)
    return table + "\n\n" + summary
