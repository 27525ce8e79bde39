"""Multi-GPU fleet subsystem: registry, placement, hierarchical fairness.

See docs/FLEET.md.  The package splits along the same interception
boundary as the rest of the tree:

* :mod:`repro.fleet.policies` — global fair-share policies, pure math
  over interception-observable digests (boundary-checked by neonlint);
* :mod:`repro.fleet.placement` — deterministic task→device placement;
* :mod:`repro.fleet.share` — the trace-sink coordinator feeding digests
  to the policy and re-weighting local DFQs at engagement ticks;
* :mod:`repro.fleet.registry` — the run path: N device stacks in one
  simulator (one is the paper's system), device loss, reincarnation,
  and the run loop;
* :mod:`repro.fleet.migration` — planned moves at engagement boundaries;
* :mod:`repro.fleet.tenants` — migration-aware tenant workloads;
* :mod:`repro.fleet.experiment` — farm cells, tables, chaos invariants;
* :mod:`repro.fleet.cli` — ``repro fleet run|chaos|policies|placements``.
"""

from repro.fleet.experiment import (
    check_fleet_invariants,
    device_loss_plan,
    format_fleet_table,
    summarize_fleet,
    tenant_specs,
)
from repro.fleet.migration import MigrationManager, MigrationRecord, PendingMove
from repro.fleet.placement import (
    PlacementPolicy,
    placement_registry,
    register_placement,
    stable_hash,
)
from repro.fleet.policies import (
    DeviceDigest,
    FleetFairShare,
    GlobalPolicy,
    PartitionedShares,
    ServerArbiter,
    TenantDigest,
    global_policy_registry,
    register_global_policy,
)
from repro.fleet.registry import DeviceStack
from repro.fleet.share import GlobalFairShare
from repro.fleet.tenants import FleetTenant

__all__ = [
    "DeviceDigest",
    "DeviceStack",
    "FleetFairShare",
    "FleetTenant",
    "GlobalFairShare",
    "GlobalPolicy",
    "MigrationManager",
    "MigrationRecord",
    "PartitionedShares",
    "PendingMove",
    "PlacementPolicy",
    "ServerArbiter",
    "TenantDigest",
    "check_fleet_invariants",
    "device_loss_plan",
    "format_fleet_table",
    "global_policy_registry",
    "placement_registry",
    "register_global_policy",
    "register_placement",
    "stable_hash",
    "summarize_fleet",
    "tenant_specs",
]
