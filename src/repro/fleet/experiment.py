"""Fleet experiment cells, tables, and chaos invariants.

A fleet run is a :class:`~repro.experiments.cells.CellSpec` with
``devices > 1`` (or planned ``moves``): it fans out over the experiment
farm (``run_cells``) and shares its result cache like any other cell, and
its content key adds the device count, placement, global policy and
moves.  :func:`tenant_specs` builds its migration-aware tenants.

The module also owns the fleet chaos story: device-loss fault plans and
the invariant checker the chaos matrix (and CI smoke job) assert —
tenants of a lost device migrate to a survivor or escalate, bystander
tenants are never killed and never starve, and the fleet-level Jain
index stays above its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.cells import (
    CellSpec,
    WorkloadSpec,
    register_workload_kind,
)
from repro.faults import registry as points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.registry import WorkloadResult
from repro.fleet.tenants import FleetTenant
from repro.metrics.fairness import jain_index
from repro.metrics.tables import format_table

register_workload_kind("tenant", FleetTenant)


def tenant_specs(
    count: int,
    request_size_us: float = 800.0,
    sleep_ratio: float = 0.0,
    jitter_sigma: float = 0.0,
    partitions: int = 1,
) -> tuple[WorkloadSpec, ...]:
    """Uniform fleet tenants ``p<k>.t<i>``, round-robined over partitions."""
    if count < 1:
        raise ValueError("need at least one tenant")
    if partitions < 1:
        raise ValueError("need at least one partition")
    specs = []
    for index in range(count):
        group = f"p{index % partitions}"
        specs.append(
            WorkloadSpec.of(
                "tenant",
                f"{group}.t{index:03d}",
                request_size_us=request_size_us,
                sleep_ratio=sleep_ratio,
                jitter_sigma=jitter_sigma,
            )
        )
    return tuple(specs)


#: Fleet cells are plain :class:`CellSpec` cells with ``devices > 1``.
#: The alias remains only for the benchmark harness, which imports it.
FleetCellSpec = CellSpec


# ----------------------------------------------------------------------
# Summaries and tables
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetSummary:
    """Fleet-level rollup of one run's per-tenant results."""

    devices: int
    tenants: int
    jain: float
    moves: int
    loss_moves: int
    devices_lost: int
    killed: int


def summarize_fleet(results: Dict[str, WorkloadResult]) -> FleetSummary:
    """Fleet rollup from results alone (survives the farm's cache)."""
    values = list(results.values())

    def peak(metric: str, default: float) -> float:
        return max(
            (r.metrics.get(metric, default) for r in values), default=default
        )

    return FleetSummary(
        devices=int(peak("fleet_devices", 1.0)),
        tenants=len(values),
        jain=jain_index(r.ground_truth_usage_us for r in values),
        moves=int(sum(r.metrics.get("fleet_moves", 0.0) for r in values)),
        loss_moves=int(
            sum(r.metrics.get("fleet_loss_moves", 0.0) for r in values)
        ),
        devices_lost=int(peak("fleet_devices_lost", 0.0)),
        killed=sum(1 for r in values if r.killed),
    )


def format_fleet_table(results: Dict[str, WorkloadResult]) -> str:
    """Per-device rollup table plus the fleet-level summary lines."""
    summary = summarize_fleet(results)
    by_device: Dict[int, List[WorkloadResult]] = {}
    for name in sorted(results):
        result = results[name]
        device = int(result.metrics.get("fleet_device", 0.0))
        by_device.setdefault(device, []).append(result)
    rows = []
    for device in sorted(by_device):
        members = by_device[device]
        usage_ms = sum(r.ground_truth_usage_us for r in members) / 1000.0
        rounds = [r.mean_round_us for r in members if r.rounds.count]
        mean_round = sum(rounds) / len(rounds) if rounds else float("nan")
        moves = int(sum(r.metrics.get("fleet_moves", 0.0) for r in members))
        killed = sum(1 for r in members if r.killed)
        rows.append(
            (device, len(members), usage_ms, mean_round, moves, killed)
        )
    lines = [
        format_table(
            ("device", "tenants", "usage_ms", "mean_round_us", "moves",
             "killed"),
            rows,
        ),
        "",
        f"fleet Jain index: {summary.jain:.3f}",
        f"migrations: {summary.moves} "
        f"(rebalance {summary.moves - summary.loss_moves}, "
        f"device_loss {summary.loss_moves})",
        f"devices lost: {summary.devices_lost}   "
        f"tenants killed: {summary.killed}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chaos: device loss plans and fleet invariants
# ----------------------------------------------------------------------
def device_loss_plan(
    device: int, at_us: float, name: Optional[str] = None
) -> FaultPlan:
    """A plan dropping one device at (the poll tick after) ``at_us``."""
    return FaultPlan(
        name=name or f"lose-d{device}",
        specs=(
            FaultSpec(
                points.FLEET_DEVICE_LOSS,
                start_us=at_us,
                count=1,
                target_task=f"device{device}",
            ),
        ),
    )


def check_fleet_invariants(
    results: Dict[str, WorkloadResult],
    jain_floor: Optional[float] = None,
) -> list[str]:
    """Fleet protection invariants over one run's results.

    * With at least one surviving device, no tenant may end the run
      killed by device loss — its task must have migrated (reincarnated)
      instead; escalation is legal only when the whole fleet is gone.
    * Bystander tenants (never touched by a loss) are never killed and
      never starve (they complete rounds past warmup).
    * Optionally, fleet-wide Jain over ground-truth usage stays at or
      above ``jain_floor``.
    """
    violations: list[str] = []
    summary = summarize_fleet(results)
    survivors = summary.devices - summary.devices_lost
    for name in sorted(results):
        result = results[name]
        loss_moves = result.metrics.get("fleet_loss_moves", 0.0)
        lost_kill = result.kill_reason == "device lost"
        if lost_kill and survivors > 0:
            violations.append(
                f"{name}: escalated by device loss despite "
                f"{survivors} surviving device(s)"
            )
        if loss_moves == 0 and not lost_kill:
            # A bystander: its device never went down.
            if result.killed:
                violations.append(
                    f"{name}: bystander killed: {result.kill_reason}"
                )
            elif result.rounds.count == 0:
                violations.append(
                    f"{name}: bystander starved (zero rounds past warmup)"
                )
    if jain_floor is not None:
        if not summary.jain >= jain_floor:  # NaN-proof comparison
            violations.append(
                f"fleet Jain {summary.jain:.3f} below floor {jain_floor:g}"
            )
    return violations
