"""Protection experiments (Sections 1, 3.1).

Two attacks from the paper's motivation:

* an **infinite-loop request** that would monopolize the device forever —
  the schedulers' drain-timeout watchdog must kill the offender and let
  the victim recover;
* a **greedy batcher** that inflates request sizes to hog a
  work-conserving device — fair schedulers must cap it near 50%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table
from repro.osmodel.costs import CostParams

SCHEDULERS = ("direct", "timeslice", "disengaged-timeslice", "dfq")


@dataclass(frozen=True)
class InfiniteLoopOutcome:
    scheduler: str
    attacker_killed: bool
    kill_reason: str
    victim_rounds_after_attack: int
    victim_starved: bool


@dataclass(frozen=True)
class BatcherOutcome:
    scheduler: str
    batcher_share: float
    victim_share: float


def _protection_costs() -> CostParams:
    """Costs with a tight runaway threshold so short runs show the kill."""
    costs = CostParams()
    costs.max_request_us = 50_000.0
    return costs


def run_infinite_loop(
    duration_us: float = 400_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[InfiniteLoopOutcome]:
    # The attack starts a quarter into the run; measuring rounds from
    # there counts the victim's rounds after the attack.
    attack_start_us = duration_us / 4
    workloads = (
        WorkloadSpec.of("infinite-kernel", normal_size_us=100.0,
                        normal_requests=50),
        WorkloadSpec.app("DCT", instance="victim"),
    )
    specs = [
        CellSpec(scheduler, workloads, duration_us, attack_start_us, seed,
                 costs=_protection_costs())
        for scheduler in schedulers
    ]
    cells = run_cells(specs, **farm)
    outcomes = []
    for scheduler, results in zip(schedulers, cells):
        attacker = results["infinite-kernel"]
        victim_after = results["victim"].rounds.count
        outcomes.append(
            InfiniteLoopOutcome(
                scheduler=scheduler,
                attacker_killed=attacker.killed,
                kill_reason=attacker.kill_reason or "-",
                victim_rounds_after_attack=victim_after,
                victim_starved=victim_after == 0,
            )
        )
    return outcomes


def run_greedy_batcher(
    duration_us: float = 400_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[BatcherOutcome]:
    workloads = (
        WorkloadSpec.of("greedy-batcher", work_unit_us=50.0, batch_factor=20),
        WorkloadSpec.throttle(50.0, name="victim"),
    )
    specs = [
        CellSpec(scheduler, workloads, duration_us, warmup_us, seed)
        for scheduler in schedulers
    ]
    cells = run_cells(specs, **farm)
    outcomes = []
    for scheduler, results in zip(schedulers, cells):
        batcher = results["greedy-batcher"]
        victim = results["victim"]
        total = batcher.ground_truth_usage_us + victim.ground_truth_usage_us
        outcomes.append(
            BatcherOutcome(
                scheduler=scheduler,
                batcher_share=batcher.ground_truth_usage_us / total,
                victim_share=victim.ground_truth_usage_us / total,
            )
        )
    return outcomes


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    loop_outcomes = run_infinite_loop(
        duration_us=duration_us, seed=seed, **farm
    )
    loop_table = format_table(
        ["scheduler", "attacker killed", "victim rounds after attack", "victim starved"],
        [
            [o.scheduler, o.attacker_killed, o.victim_rounds_after_attack, o.victim_starved]
            for o in loop_outcomes
        ],
        title="Infinite-loop request: kill-and-recover "
        "(direct access starves; schedulers must not)",
    )
    batch_outcomes = run_greedy_batcher(
        duration_us=duration_us, seed=seed, **farm
    )
    batch_table = format_table(
        ["scheduler", "batcher device share", "victim device share"],
        [
            [o.scheduler, f"{100 * o.batcher_share:.0f}%", f"{100 * o.victim_share:.0f}%"]
            for o in batch_outcomes
        ],
        title="Greedy batcher vs equal-work victim "
        "(direct access rewards batching; fair schedulers split ~50/50)",
    )
    print(loop_table)
    print()
    print(batch_table)
    return loop_table + "\n\n" + batch_table
