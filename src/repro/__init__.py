"""repro — Disengaged Scheduling for fair, protected accelerator access.

A full-system simulation reproduction of Menychtas, Shen & Scott,
"Disengaged Scheduling for Fair, Protected Access to Fast Computational
Accelerators" (ASPLOS 2014).  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quick start::

    from repro import build_env, run_workloads, Throttle, make_app

    env = build_env(scheduler="dfq", seed=1)
    workloads = [make_app("DCT"), Throttle(500.0)]
    results = run_workloads(env, workloads, duration_us=300_000)
    for name, result in results.items():
        print(name, result.rounds.mean_us)
"""

from repro.core import (
    CreditScheduler,
    DeficitRoundRobin,
    DirectAccess,
    DisengagedFairQueueing,
    DisengagedFairQueueingHW,
    DisengagedTimeslice,
    EngagedFairQueueing,
    SchedulerBase,
    TimesliceScheduler,
    scheduler_registry,
)
from repro.experiments.runner import (
    SimulationEnv,
    WorkloadResult,
    build_env,
    run_workloads,
)
from repro.faults import FaultPlan, FaultSpec, Injector
from repro.gpu import GpuDevice, GpuParams, Request, RequestKind
from repro.osmodel import (
    ChannelQuotaPolicy,
    CostParams,
    Kernel,
    MemoryQuotaPolicy,
    Task,
)
from repro.workloads import (
    APP_PROFILES,
    ChannelHog,
    GreedyBatcher,
    InfiniteKernel,
    MemoryHog,
    ProfiledApp,
    Throttle,
    Workload,
    make_app,
)

__version__ = "1.0.0"

__all__ = [
    "APP_PROFILES",
    "ChannelHog",
    "ChannelQuotaPolicy",
    "CostParams",
    "CreditScheduler",
    "DeficitRoundRobin",
    "DirectAccess",
    "DisengagedFairQueueing",
    "DisengagedFairQueueingHW",
    "DisengagedTimeslice",
    "EngagedFairQueueing",
    "FaultPlan",
    "FaultSpec",
    "GpuDevice",
    "GpuParams",
    "GreedyBatcher",
    "InfiniteKernel",
    "Injector",
    "Kernel",
    "MemoryHog",
    "MemoryQuotaPolicy",
    "ProfiledApp",
    "Request",
    "RequestKind",
    "SchedulerBase",
    "SimulationEnv",
    "Task",
    "Throttle",
    "TimesliceScheduler",
    "Workload",
    "WorkloadResult",
    "__version__",
    "build_env",
    "make_app",
    "run_workloads",
    "scheduler_registry",
]
