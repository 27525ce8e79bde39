"""Chaos experiments: fault plans × schedulers under protection invariants.

The paper's protection story (Sections 1, 3) is argued against a
*well-behaved* device; :mod:`repro.faults` lets the device, the driver
stack, and NEON's introspection all misbehave on purpose.  This driver
sweeps a catalog of fault plans across the three hardened schedulers and
asserts, automatically, that protection survives:

* **no well-behaved starvation** — the untargeted bystander keeps
  completing rounds and is never killed;
* **accounted incidents** — every watchdog detection is matched by a
  recovery or an escalation (``detections == recoveries + escalations``
  per task), so no fault is silently dropped;
* **termination** — every simulation reaches its horizon (drains,
  retries, and backoffs are all bounded);
* **clean device state** — after the run no dead task retains a live
  channel and no engine is executing a dead channel's request (checked
  serially with ground-truth access by :func:`deep_check`).

Cells fan out over the experiment farm (``--workers``); fault plans
hash into each cell's content key, so chaos cells never collide with the
paper-figure cells.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.cli import comma_list, positive
from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import (
    CellTiming,
    format_cell_timings,
    run_cells,
)
from repro.experiments.runner import WorkloadResult, build_env, run_workloads
from repro.faults import registry as points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.metrics.tables import format_table
from repro.osmodel.costs import CostParams
from repro.workloads.throttle import Throttle

#: Schedulers under test — the three that manage (direct access has no
#: watchdog and nothing to harden).
SCHEDULERS = ("timeslice", "disengaged-timeslice", "dfq")

VICTIM = "victim"
BYSTANDER = "bystander"

#: Chaos horizon: long enough that the slowest ladder (detect → two
#: backed-off retries → degrade → strike-two detect → retries → escalate,
#: ~175 ms per episode at the 25 ms drain deadline) settles before the
#: run ends, so every detection meets its resolution inside the trace.
DURATION_US = 500_000.0
WARMUP_US = 50_000.0


def chaos_costs() -> CostParams:
    """Costs with a tight runaway threshold so faults resolve in-run."""
    costs = CostParams()
    costs.max_request_us = 25_000.0
    return costs


# ----------------------------------------------------------------------
# The plan catalog
# ----------------------------------------------------------------------
def builtin_plans() -> dict[str, FaultPlan]:
    """Named fault plans covering every registered injection point.

    All plans target the ``victim`` task where the point supports
    targeting, leaving ``bystander`` as the well-behaved control; the
    ``none`` plan is the empty-identity control.
    """
    window = dict(start_us=WARMUP_US, end_us=DURATION_US)
    plans = {
        "none": FaultPlan(name="none"),
        "hang": FaultPlan(
            name="hang",
            specs=(
                FaultSpec(points.GPU_REQUEST_HANG, count=1,
                          target_task=VICTIM, **window),
            ),
        ),
        "slowdown": FaultPlan(
            name="slowdown",
            specs=(
                FaultSpec(points.GPU_REQUEST_SLOWDOWN, factor=200.0,
                          probability=0.25, count=2, target_task=VICTIM,
                          **window),
            ),
            seed=7,
        ),
        "refstall": FaultPlan(
            name="refstall",
            specs=(
                FaultSpec(points.GPU_REFCOUNTER_STALL, magnitude_us=40_000.0,
                          count=2, target_task=VICTIM, **window),
            ),
        ),
        "refstall-storm": FaultPlan(
            name="refstall-storm",
            specs=(
                FaultSpec(points.GPU_REFCOUNTER_STALL,
                          magnitude_us=2_000_000.0, count=1,
                          target_task=VICTIM, **window),
            ),
        ),
        "spurious": FaultPlan(
            name="spurious",
            specs=(
                FaultSpec(points.GPU_SPURIOUS_COMPLETION, count=3,
                          target_task=VICTIM, **window),
            ),
        ),
        "pollstall": FaultPlan(
            name="pollstall",
            specs=(
                FaultSpec(points.KERNEL_POLL_STALL, magnitude_us=30_000.0,
                          probability=0.05, **window),
            ),
            seed=11,
        ),
        "stalescan": FaultPlan(
            name="stalescan",
            specs=(
                FaultSpec(points.NEON_STALE_SCAN, probability=0.5, **window),
            ),
            seed=13,
        ),
        "discovery": FaultPlan(
            name="discovery",
            specs=(
                FaultSpec(points.NEON_DISCOVERY_CORRUPTION,
                          magnitude_us=20_000.0, count=1),
            ),
        ),
        "jitter": FaultPlan(
            name="jitter",
            specs=(
                FaultSpec(points.GPU_CONTEXT_SWITCH_SPIKE,
                          magnitude_us=150.0, probability=0.2, **window),
                FaultSpec(points.KERNEL_SUBMIT_LATENCY, magnitude_us=80.0,
                          probability=0.2, **window),
                FaultSpec(points.KERNEL_FAULT_DELAY, magnitude_us=120.0,
                          probability=0.2, **window),
                FaultSpec(points.KERNEL_FAULT_DROP, magnitude_us=400.0,
                          probability=0.05, **window),
                FaultSpec(points.NEON_BARRIER_STALL, magnitude_us=200.0,
                          probability=0.2, **window),
            ),
            seed=17,
        ),
    }
    plans["mixed"] = FaultPlan.compose(
        "mixed", plans["hang"], plans["refstall"], plans["jitter"], seed=23,
    )
    return plans


def chaos_cell(
    plan: FaultPlan,
    scheduler: str,
    duration_us: float = DURATION_US,
    seed: int = 0,
) -> CellSpec:
    """One chaos cell: victim + bystander under ``scheduler`` and ``plan``."""
    return CellSpec(
        scheduler=scheduler,
        workloads=(
            WorkloadSpec.throttle(800.0, name=VICTIM),
            WorkloadSpec.throttle(800.0, name=BYSTANDER),
        ),
        duration_us=duration_us,
        warmup_us=WARMUP_US,
        seed=seed,
        costs=chaos_costs(),
        fault_plan=plan if plan.specs else None,
    )


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosOutcome:
    """One (plan, scheduler) cell plus its invariant verdict."""

    plan: str
    scheduler: str
    injected: float
    detections: float
    recoveries: float
    escalations: float
    retries: float
    victim_fate: str
    bystander_rounds: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_invariants(
    plan: FaultPlan, results: dict[str, WorkloadResult]
) -> list[str]:
    """Protection-invariant assertions over one cell's results."""
    violations: list[str] = []
    for name in sorted(results):
        result = results[name]
        detections = result.metrics.get("fault_detections", 0.0)
        recoveries = result.metrics.get("fault_recoveries", 0.0)
        escalations = result.metrics.get("fault_escalations", 0.0)
        if detections != recoveries + escalations:
            violations.append(
                f"{name}: {detections:g} detections vs "
                f"{recoveries:g} recoveries + {escalations:g} escalations"
            )
        if not plan.specs and (
            detections or result.metrics.get("faults_injected", 0.0)
        ):
            violations.append(f"{name}: fault activity under the empty plan")
    bystander = results.get(BYSTANDER)
    if bystander is None:
        violations.append("bystander result missing")
    else:
        if bystander.killed:
            violations.append(
                f"bystander killed: {bystander.kill_reason}"
            )
        if bystander.rounds.count == 0:
            violations.append("bystander starved (zero rounds past warmup)")
    return violations


def _outcome(
    plan: FaultPlan, scheduler: str, results: dict[str, WorkloadResult]
) -> ChaosOutcome:
    def total(metric: str) -> float:
        return sum(r.metrics.get(metric, 0.0) for r in results.values())

    victim = results.get(VICTIM)
    if victim is None:
        fate = "missing"
    elif victim.killed:
        fate = f"killed ({victim.kill_reason})"
    else:
        fate = "alive"
    bystander = results.get(BYSTANDER)
    return ChaosOutcome(
        plan=plan.name,
        scheduler=scheduler,
        injected=total("faults_injected"),
        detections=total("fault_detections"),
        recoveries=total("fault_recoveries"),
        escalations=total("fault_escalations"),
        retries=total("watchdog_retries"),
        victim_fate=fate,
        bystander_rounds=bystander.rounds.count if bystander else 0,
        violations=tuple(check_invariants(plan, results)),
    )


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def run_matrix(
    plan_names: Optional[Sequence[str]] = None,
    schedulers: Sequence[str] = SCHEDULERS,
    duration_us: float = DURATION_US,
    seed: int = 0,
    workers: int = 1,
    timings: Optional[list[CellTiming]] = None,
) -> list[ChaosOutcome]:
    """Run plans × schedulers on the cell farm and judge every cell."""
    catalog = builtin_plans()
    if plan_names is None:
        plan_names = list(catalog)
    unknown = [name for name in plan_names if name not in catalog]
    if unknown:
        known = ", ".join(catalog)
        raise KeyError(f"unknown plan(s) {unknown}; known: {known}")
    pairs = [
        (catalog[name], scheduler)
        for name in plan_names
        for scheduler in schedulers
    ]
    specs = [
        chaos_cell(plan, scheduler, duration_us, seed)
        for plan, scheduler in pairs
    ]
    all_results = run_cells(specs, workers=workers, timings=timings)
    return [
        _outcome(plan, scheduler, results)
        for (plan, scheduler), results in zip(pairs, all_results)
    ]


def deep_check(
    plan: "FaultPlan | str",
    scheduler: str,
    duration_us: float = DURATION_US,
    seed: int = 0,
) -> list[str]:
    """Serial ground-truth device-state check for one cell.

    Runs outside the cell farm so the finished :class:`SimulationEnv` can
    be inspected: dead tasks must hold no live channels, and no engine
    may still be executing a dead channel's request.  ``plan`` is a
    builtin plan name or a :class:`FaultPlan`.
    """
    if isinstance(plan, str):
        plan = builtin_plans()[plan]
    env = build_env(
        scheduler,
        seed=seed,
        costs=chaos_costs(),
        fault_plan=plan if plan.specs else None,
    )
    workloads = [
        Throttle(800.0, name=VICTIM),
        Throttle(800.0, name=BYSTANDER),
    ]
    results = run_workloads(env, workloads, duration_us, WARMUP_US)
    violations = check_invariants(plan, results)
    for channel_id in sorted(env.device.channels):
        channel = env.device.channels[channel_id]
        if not channel.task.alive and not channel.dead:
            violations.append(
                f"dead task {channel.task.name} still owns live "
                f"channel {channel_id}"
            )
    for engine in env.device.engines:
        running = engine.current_channel
        if running is not None and running.dead:
            violations.append(
                f"engine {engine.name} executing dead channel "
                f"{running.channel_id}"
            )
    return violations


# ----------------------------------------------------------------------
# Reporting / CLI
# ----------------------------------------------------------------------
def format_outcomes(outcomes: Sequence[ChaosOutcome]) -> str:
    rows = []
    for outcome in outcomes:
        verdict = "OK" if outcome.ok else "; ".join(outcome.violations)
        rows.append([
            outcome.plan,
            outcome.scheduler,
            f"{outcome.injected:g}",
            f"{outcome.detections:g}",
            f"{outcome.recoveries:g}",
            f"{outcome.escalations:g}",
            f"{outcome.retries:g}",
            outcome.victim_fate,
            outcome.bystander_rounds,
            verdict,
        ])
    return format_table(
        ["plan", "scheduler", "injected", "detected", "recovered",
         "escalated", "retries", "victim", "bystander rounds", "verdict"],
        rows,
        title="Chaos matrix: fault plans vs hardened schedulers "
        "(every incident accounted, no bystander starvation)",
    )


def main(
    duration_us: float = DURATION_US,
    seed: int = 0,
    workers: int = 1,
    timings: Optional[list[CellTiming]] = None,
    plan_names: Optional[Sequence[str]] = None,
) -> str:
    outcomes = run_matrix(
        plan_names=plan_names,
        duration_us=duration_us,
        seed=seed,
        workers=workers,
        timings=timings,
    )
    table = format_outcomes(outcomes)
    print(table)
    return table


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``repro chaos`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Fault-injection chaos matrix over the hardened "
        "schedulers (see docs/FAULTS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    matrix = sub.add_parser("matrix", help="run plans × schedulers and "
                            "assert the protection invariants")
    matrix.add_argument("--plans", type=comma_list(), default=None,
                        help="comma-separated plan names (default: all)")
    matrix.add_argument("--schedulers", type=comma_list(),
                        default=",".join(SCHEDULERS),
                        help="comma-separated scheduler names")
    matrix.add_argument("--duration-ms", type=positive(float),
                        default=DURATION_US / 1000.0)
    matrix.add_argument("--seed", type=int, default=0)
    matrix.add_argument("--workers", type=int, default=1)
    matrix.add_argument("--strict", action="store_true",
                        help="exit nonzero when any invariant is violated")

    run = sub.add_parser("run", help="run one plan serially with the "
                         "ground-truth device-state deep check")
    run.add_argument("plan", help="builtin plan name, or a JSON plan file")
    run.add_argument("--scheduler", default="dfq", choices=SCHEDULERS)
    run.add_argument("--duration-ms", type=positive(float),
                     default=DURATION_US / 1000.0)
    run.add_argument("--seed", type=int, default=0)

    sub.add_parser("plans", help="list builtin fault plans")

    args = parser.parse_args(argv)
    if args.command == "plans":
        for name, plan in builtin_plans().items():
            touched = ", ".join(plan.points()) or "(empty)"
            print(f"{name:16s} {touched}")
        return 0
    if args.command == "run":
        catalog = builtin_plans()
        if args.plan in catalog:
            plan = catalog[args.plan]
        elif Path(args.plan).is_file():
            plan = FaultPlan.load(args.plan)
        else:
            known = ", ".join(catalog)
            print(f"unknown plan {args.plan!r} (known: {known}, or a JSON "
                  "plan file)", file=sys.stderr)
            return 2
        violations = deep_check(
            plan, args.scheduler,
            duration_us=args.duration_ms * 1000.0, seed=args.seed,
        )
        label = plan.name or args.plan
        if violations:
            for violation in violations:
                print(f"VIOLATION: {violation}")
            return 1
        print(f"{label} × {args.scheduler}: all invariants hold")
        return 0

    timings: list[CellTiming] = []
    outcomes = run_matrix(
        plan_names=args.plans,
        schedulers=args.schedulers,
        duration_us=args.duration_ms * 1000.0,
        seed=args.seed,
        workers=args.workers,
        timings=timings,
    )
    print(format_outcomes(outcomes))
    if timings:
        print(format_cell_timings(timings), file=sys.stderr)
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed and args.strict:
        return 1
    return 0
