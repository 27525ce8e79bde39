"""Section 6.2 — hardware preemption support (what-if experiment).

The paper argues that true hardware preemption would let disengaged
schedulers "tolerate requests of arbitrary length, without sacrificing
interactivity or becoming vulnerable to infinite loops."  This experiment
runs the timeslice schedulers on a device model with preemption + runlist
masking enabled and shows:

* an infinite-loop task is *contained* to its fair share rather than
  killed — it keeps running, but cannot monopolize;
* huge (multi-slice) requests no longer induce overuse stalls for peers;
* the price is the per-preemption save/restore cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.experiments.runner import build_env, run_workloads
from repro.gpu.params import GpuParams
from repro.metrics.tables import format_table
from repro.osmodel.costs import CostParams
from repro.workloads.adversarial import InfiniteKernel
from repro.workloads.apps import make_app

SCHEDULERS = ("timeslice", "disengaged-timeslice")


def _params(preemption: bool) -> GpuParams:
    params = GpuParams()
    params.preemption_supported = preemption
    return params


def _costs() -> CostParams:
    """Tight runaway threshold so kill decisions land within short runs."""
    costs = CostParams()
    costs.max_request_us = 60_000.0
    return costs


@dataclass(frozen=True)
class ContainmentOutcome:
    scheduler: str
    preemption: bool
    attacker_killed: bool
    attacker_share: float
    victim_slowdown: float
    preemptions: int


def run_containment(
    duration_us: float = 400_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULERS,
    **farm,
) -> list[ContainmentOutcome]:
    (base,) = run_cells(
        [CellSpec.solo(WorkloadSpec.app("DCT", instance="victim"),
                       duration_us, warmup_us, seed)],
        **farm,
    )
    victim_base = base["victim"]
    outcomes = []
    # The runs stay hand-wired: they read the device's usage split and
    # preemption count, which a cell's results do not carry.
    for scheduler in schedulers:
        for preemption in (False, True):
            env = build_env(
                scheduler, seed=seed, gpu_params=_params(preemption),
                costs=_costs(),
            )
            attacker = InfiniteKernel(normal_size_us=100.0, normal_requests=10)
            victim = make_app("DCT", instance="victim")
            run_workloads(env, [attacker, victim], duration_us, warmup_us)
            total = env.device.task_usage(attacker.task) + env.device.task_usage(
                victim.task
            )
            outcomes.append(
                ContainmentOutcome(
                    scheduler=scheduler,
                    preemption=preemption,
                    attacker_killed=attacker.killed,
                    attacker_share=env.device.task_usage(attacker.task) / total,
                    victim_slowdown=victim.round_stats(warmup_us).mean_us
                    / victim_base.rounds.mean_us,
                    preemptions=env.device.main_engine.preemptions,
                )
            )
    return outcomes


@dataclass(frozen=True)
class LongRequestOutcome:
    scheduler: str
    preemption: bool
    long_task_slowdown: float
    small_task_slowdown: float
    small_task_p95_us: float


def run_long_requests(
    duration_us: float = 400_000.0,
    warmup_us: float = 80_000.0,
    seed: int = 0,
    schedulers: Sequence[str] = SCHEDULERS,
    long_request_us: float = 45_000.0,
    **farm,
) -> list[LongRequestOutcome]:
    """Multi-timeslice requests: without preemption the peer eats the
    overrun (overuse control repays it only on average); with preemption
    slice boundaries are enforced exactly."""
    long_task = WorkloadSpec.throttle(long_request_us, name="long")
    small_task = WorkloadSpec.throttle(100.0, name="small")
    configs = [
        (scheduler, preemption)
        for scheduler in schedulers
        for preemption in (False, True)
    ]
    specs = [
        CellSpec.solo(long_task, duration_us, warmup_us, seed),
        CellSpec.solo(small_task, duration_us, warmup_us, seed),
    ] + [
        CellSpec(scheduler, (long_task, small_task), duration_us, warmup_us,
                 seed, gpu_params=_params(preemption))
        for scheduler, preemption in configs
    ]
    long_base, small_base, *cells = run_cells(specs, **farm)
    return [
        LongRequestOutcome(
            scheduler=scheduler,
            preemption=preemption,
            long_task_slowdown=results["long"].rounds.mean_us
            / long_base["long"].rounds.mean_us,
            small_task_slowdown=results["small"].rounds.mean_us
            / small_base["small"].rounds.mean_us,
            small_task_p95_us=results["small"].rounds.p95_us,
        )
        for (scheduler, preemption), results in zip(configs, cells)
    ]


def main(duration_us: float = 400_000.0, seed: int = 0, **farm) -> str:
    containment = run_containment(duration_us=duration_us, seed=seed, **farm)
    containment_table = format_table(
        ["scheduler", "preemption", "attacker killed", "attacker share",
         "victim slowdown", "preemptions"],
        [
            [
                o.scheduler,
                o.preemption,
                o.attacker_killed,
                f"{100 * o.attacker_share:.0f}%",
                o.victim_slowdown,
                o.preemptions,
            ]
            for o in containment
        ],
        title="Infinite-loop containment: kill (no preemption) vs "
        "fair-share containment (with preemption)",
    )
    long_requests = run_long_requests(
        duration_us=duration_us, seed=seed, **farm
    )
    long_table = format_table(
        ["scheduler", "preemption", "long-task x", "small-task x", "small p95 (us)"],
        [
            [
                o.scheduler,
                o.preemption,
                o.long_task_slowdown,
                o.small_task_slowdown,
                o.small_task_p95_us,
            ]
            for o in long_requests
        ],
        title="1.5-timeslice requests: preemption enforces slice boundaries exactly",
    )
    print(containment_table)
    print()
    print(long_table)
    return containment_table + "\n\n" + long_table
