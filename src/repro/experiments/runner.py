"""Shared experiment scaffolding.

Builds a complete simulated system (simulator, device stacks, kernels,
schedulers), runs a set of workloads for a fixed virtual duration, and
extracts per-workload results.  All experiments are deterministic given
the seed.  The builder and the run loop live in
:mod:`repro.fleet.registry` — a single device is the fleet of one — and
are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.fleet.registry import (
    DEFAULT_DURATION_US,
    DEFAULT_WARMUP_US,
    SchedulerSpec,
    SimulationEnv,
    WorkloadResult,
    build_env,
    run_workloads,
)
from repro.gpu.params import GpuParams
from repro.obs.monitor import active_monitor
from repro.osmodel.costs import CostParams
from repro.workloads.base import Workload

__all__ = [
    "DEFAULT_DURATION_US",
    "DEFAULT_WARMUP_US",
    "SeedSweepStats",
    "SimulationEnv",
    "WorkloadResult",
    "build_env",
    "measure",
    "run_workloads",
    "solo_baseline",
    "sweep_seeds",
]

WorkloadFactory = Callable[[], Workload]


def measure(
    scheduler: SchedulerSpec,
    factories: Sequence[WorkloadFactory],
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
    fault_plan: Optional[FaultPlan] = None,
    devices: int = 1,
    placement: str = "least-loaded",
    policy: str = "fleet-fair",
    moves: Sequence[Tuple[float, str, int]] = (),
) -> dict[str, WorkloadResult]:
    """Build a fresh system, run the workload mix, return results.

    Under an active monitor session the simulation shares the monitor's
    live-sink trace recorder and metrics registry, so streaming windows
    see every event regardless of ring-buffer capacity.
    """
    session = active_monitor()
    monitor = session.begin_run() if session is not None else None
    env = build_env(
        scheduler, seed=seed, costs=costs, gpu_params=gpu_params,
        trace=monitor.trace if monitor is not None else None,
        metrics=monitor.metrics if monitor is not None else None,
        fault_plan=fault_plan, devices=devices, placement=placement,
        policy=policy,
    )
    workloads = [factory() for factory in factories]
    try:
        return run_workloads(env, workloads, duration_us, warmup_us, moves)
    finally:
        if monitor is not None:
            session.end_run(monitor)


def solo_baseline(
    factory: WorkloadFactory,
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
) -> WorkloadResult:
    """Run one workload alone under direct device access."""
    results = measure(
        "direct", [factory], duration_us, warmup_us, seed, costs, gpu_params
    )
    return next(iter(results.values()))


@dataclass(frozen=True)
class SeedSweepStats:
    """Mean and spread of a metric across seeds."""

    metric: str
    seeds: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean; how seed-sensitive the result is."""
        if self.mean == 0:
            return float("nan")
        return (self.maximum - self.minimum) / self.mean


def sweep_seeds(
    metric_fn: Callable[[int], float],
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metric: str = "metric",
) -> SeedSweepStats:
    """Evaluate ``metric_fn(seed)`` across seeds and summarize the spread.

    Every simulation is deterministic per seed, so this is the honest way
    to put error bars on a reported number.
    """
    values = [metric_fn(seed) for seed in seeds]
    count = len(values)
    mean = sum(values) / count
    variance = sum((value - mean) ** 2 for value in values) / count
    return SeedSweepStats(
        metric=metric,
        seeds=count,
        mean=mean,
        std=variance**0.5,
        minimum=min(values),
        maximum=max(values),
    )
