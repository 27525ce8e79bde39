"""Shared experiment scaffolding.

Builds a complete simulated system (simulator, device stacks, kernels,
schedulers), runs a set of workloads for a fixed virtual duration, and
extracts per-workload results.  All experiments are deterministic given
the seed.  The builder and the run loop live in
:mod:`repro.fleet.registry` — a single device is the fleet of one.
:func:`run_workloads` is re-exported as is; :func:`build_env` is the
fleet builder plus the one monitoring hook every driver simulation
passes.
"""

from __future__ import annotations

from typing import Optional

from repro.fleet import registry
from repro.fleet.registry import (
    DEFAULT_DURATION_US,
    DEFAULT_WARMUP_US,
    SchedulerSpec,
    SimulationEnv,
    WorkloadResult,
    run_workloads,
)
from repro.obs.monitor import active_monitor
from repro.sim.trace import TraceRecorder

__all__ = [
    "DEFAULT_DURATION_US",
    "DEFAULT_WARMUP_US",
    "SimulationEnv",
    "WorkloadResult",
    "build_env",
    "run_workloads",
]


def build_env(
    scheduler: SchedulerSpec = "direct",
    trace: Optional[TraceRecorder] = None,
    **options,
) -> SimulationEnv:
    """:func:`repro.fleet.registry.build_env`, monitored when asked.

    With no ``trace`` given and a monitor session active, the simulation
    records into a fresh run of that session — its live-sink trace
    recorder and metrics registry — so streaming windows see every event
    of every driver simulation, cell or hand-wired.
    """
    session = active_monitor() if trace is None else None
    if session is None:
        return registry.build_env(scheduler, trace=trace, **options)
    monitor = session.begin_run()
    if options.get("metrics") is None:
        options["metrics"] = monitor.metrics
    env = registry.build_env(scheduler, trace=monitor.trace, **options)
    monitor.clock = env.sim
    return env
