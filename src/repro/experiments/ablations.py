"""Ablations of the design choices DESIGN.md calls out.

* **Vendor statistics (dfq-hw)** — Sections 3.3/6.1 argue DFQ's residual
  unfairness for graphics/multi-channel tasks stems from software
  request-size estimation; with hardware usage counters the glxgears
  anomaly should disappear.
* **Free-run multiplier** — the engagement/free-run duty cycle trades
  overhead against how quickly imbalance is corrected.
* **Related-work baselines** — per-request SFQ, deficit round robin
  (GERM), and credit scheduling (Gdev) achieve fairness but pay per-request
  interception, like engaged Timeslice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table
from repro.osmodel.costs import CostParams


def dct_throttle_slowdowns(
    configs: Sequence[tuple[str, Optional[CostParams]]],
    throttle: WorkloadSpec,
    duration_us: float,
    warmup_us: float,
    seed: int,
    **farm,
) -> list[tuple[float, float, float]]:
    """DCT alone and DCT beside ``throttle``, under each configuration.

    Per ``(scheduler, costs)`` pair: DCT's standalone overhead and the
    slowdowns of DCT and the Throttle in the pair, each against its
    direct-access baseline.
    """
    app = WorkloadSpec.app("DCT")
    specs = [
        CellSpec.solo(app, duration_us, warmup_us, seed),
        CellSpec.solo(throttle, duration_us, warmup_us, seed),
    ]
    for scheduler, costs in configs:
        specs += [
            CellSpec(scheduler, (app,), duration_us, warmup_us, seed,
                     costs=costs),
            CellSpec(scheduler, (app, throttle), duration_us, warmup_us, seed,
                     costs=costs),
        ]
    app_base, throttle_base, *cells = run_cells(specs, **farm)
    app_us = app_base["DCT"].rounds.mean_us
    (name, throttle_alone), = throttle_base.items()
    throttle_us = throttle_alone.rounds.mean_us
    return [
        (
            solo["DCT"].rounds.mean_us / app_us - 1.0,
            pair["DCT"].rounds.mean_us / app_us,
            pair[name].rounds.mean_us / throttle_us,
        )
        for solo, pair in zip(cells[::2], cells[1::2])
    ]


@dataclass(frozen=True)
class AnomalyOutcome:
    """glxgears vs small Throttle under sampling-based vs hardware DFQ."""

    scheduler: str
    gears_slowdown: float
    throttle_slowdown: float

    @property
    def disparity(self) -> float:
        """How much worse glxgears fares than Throttle (1.0 = even)."""
        return self.gears_slowdown / self.throttle_slowdown


def run_hw_stats(
    duration_us: float = 500_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    throttle_size_us: float = 19.0,
    **farm,
) -> list[AnomalyOutcome]:
    gears = WorkloadSpec.app("glxgears")
    throttle = WorkloadSpec.throttle(throttle_size_us, name="throttle")
    schedulers = ("dfq", "dfq-hw")
    specs = [
        CellSpec.solo(gears, duration_us, warmup_us, seed),
        CellSpec.solo(throttle, duration_us, warmup_us, seed),
    ] + [
        CellSpec(scheduler, (gears, throttle), duration_us, warmup_us, seed)
        for scheduler in schedulers
    ]
    gears_base, throttle_base, *pairs = run_cells(specs, **farm)
    return [
        AnomalyOutcome(
            scheduler=scheduler,
            gears_slowdown=pair["glxgears"].rounds.mean_us
            / gears_base["glxgears"].rounds.mean_us,
            throttle_slowdown=pair["throttle"].rounds.mean_us
            / throttle_base["throttle"].rounds.mean_us,
        )
        for scheduler, pair in zip(schedulers, pairs)
    ]


@dataclass(frozen=True)
class MultiplierOutcome:
    multiplier: float
    standalone_overhead: float
    app_slowdown: float
    throttle_slowdown: float


def run_freerun_multiplier(
    duration_us: float = 500_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    multipliers: Sequence[float] = (2.0, 5.0, 10.0),
    **farm,
) -> list[MultiplierOutcome]:
    configs = []
    for multiplier in multipliers:
        costs = CostParams()
        costs.freerun_multiplier = multiplier
        configs.append(("dfq", costs))
    slowdowns = dct_throttle_slowdowns(
        configs, WorkloadSpec.throttle(1700.0, name="throttle"), duration_us,
        warmup_us, seed, **farm,
    )
    return [
        MultiplierOutcome(multiplier, *row)
        for multiplier, row in zip(multipliers, slowdowns)
    ]


@dataclass(frozen=True)
class BaselineOutcome:
    scheduler: str
    app_slowdown: float
    throttle_slowdown: float
    app_standalone_overhead: float


def run_baseline_schedulers(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = ("engaged-fq", "drr", "credit", "dfq"),
    **farm,
) -> list[BaselineOutcome]:
    slowdowns = dct_throttle_slowdowns(
        [(scheduler, None) for scheduler in schedulers],
        WorkloadSpec.throttle(500.0, name="throttle"), duration_us, warmup_us,
        seed, **farm,
    )
    return [
        BaselineOutcome(
            scheduler=scheduler,
            app_slowdown=app_slowdown,
            throttle_slowdown=throttle_slowdown,
            app_standalone_overhead=overhead,
        )
        for scheduler, (overhead, app_slowdown, throttle_slowdown)
        in zip(schedulers, slowdowns)
    ]


def main(duration_us: float = 500_000.0, seed: int = 0, **farm) -> str:
    hw = run_hw_stats(duration_us=duration_us, seed=seed, **farm)
    hw_table = format_table(
        ["scheduler", "glxgears slowdown", "throttle slowdown", "disparity"],
        [[o.scheduler, o.gears_slowdown, o.throttle_slowdown, o.disparity] for o in hw],
        title="Ablation: vendor statistics fix the glxgears anomaly "
        "(dfq-hw disparity should be near 1.0)",
    )
    multipliers = run_freerun_multiplier(
        duration_us=duration_us, seed=seed, **farm
    )
    multiplier_table = format_table(
        ["free-run multiplier", "standalone overhead", "DCT slowdown", "throttle slowdown"],
        [
            [
                o.multiplier,
                f"{100 * o.standalone_overhead:.1f}%",
                o.app_slowdown,
                o.throttle_slowdown,
            ]
            for o in multipliers
        ],
        title="Ablation: free-run multiplier (overhead vs responsiveness)",
    )
    baselines = run_baseline_schedulers(
        duration_us=min(duration_us, 400_000.0), seed=seed, **farm
    )
    baseline_table = format_table(
        ["scheduler", "DCT slowdown", "throttle slowdown", "standalone overhead"],
        [
            [
                o.scheduler,
                o.app_slowdown,
                o.throttle_slowdown,
                f"{100 * o.app_standalone_overhead:.1f}%",
            ]
            for o in baselines
        ],
        title="Ablation: related-work per-request schedulers vs DFQ",
    )
    print(hw_table)
    print()
    print(multiplier_table)
    print()
    print(baseline_table)
    return "\n\n".join([hw_table, multiplier_table, baseline_table])
