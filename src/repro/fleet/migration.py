"""Task migration between fleet devices — at engagement boundaries only.

The protocol has two cooperating halves:

1. :meth:`MigrationManager.request` flags a pending move on the tenant.
   The tenant (:class:`~repro.fleet.tenants.FleetTenant`) *parks* at its
   next round boundary: nothing in flight, channel quiescent.
2. The manager's engagement-boundary hook — registered on the source
   device's scheduler via ``SchedulerBase.boundary_hooks`` and run
   inside the engagement episode, after the barrier is up and every
   channel has drained through the existing DrainWatchdog ladder —
   commits each parked move: tears down the source task (contexts
   killed, scheduler state released), charges
   ``CostParams.migration_cost_us`` into the source device's episode,
   rebinds the tenant to the target kernel, and resumes it; the tenant
   re-creates its context/channel on the target as its next action.

A tenant that is mid-request when a move is requested keeps running
until it parks, so migration can never yank state out from under an
in-flight submission; a tenant killed while parked simply drops the
move.  Device-loss recovery takes a different path (the registry's
``reincarnate``) because the source device is gone — only *planned*
moves carry the boundary-only guarantee, which is what the property
tests pin for ``reason="rebalance"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.registry import SimulationEnv
    from repro.fleet.tenants import FleetTenant
    from repro.sim.events import Event


@dataclass
class PendingMove:
    """One requested move, waiting for its tenant to park."""

    tenant: "FleetTenant"
    src: int
    dst: int
    reason: str
    #: Triggered by the manager once the tenant is rebound to the target.
    resumed: "Event"
    #: Set by the tenant when it reaches its park point.
    parked: bool = False


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration (planned or device-loss recovery)."""

    time_us: float
    task: str
    src: int
    dst: int
    reason: str
    cost_us: float


class MigrationManager:
    """Owns pending moves and the per-scheduler boundary hooks."""

    def __init__(self, fleet: "SimulationEnv") -> None:
        self.fleet = fleet
        self.records: List[MigrationRecord] = []
        self._pending: Dict[int, List[PendingMove]] = {}
        self._hooked: set = set()

    def request(
        self, tenant: "FleetTenant", dst: int, reason: str = "rebalance"
    ) -> PendingMove:
        """Ask for ``tenant`` to move to device ``dst``.

        The move commits at the source scheduler's next engagement
        boundary after the tenant parks; until then the tenant keeps
        submitting on the source.
        """
        fleet = self.fleet
        src = fleet.device_of(tenant)
        if dst == src:
            raise ValueError(f"tenant {tenant.name!r} already on device {dst}")
        if not 0 <= dst < len(fleet.stacks):
            raise ValueError(f"no such device: {dst}")
        if fleet.stacks[dst].lost:
            raise ValueError(f"device {dst} was lost")
        if tenant._move is not None:
            raise ValueError(f"tenant {tenant.name!r} already has a pending move")
        move = PendingMove(tenant, src, dst, reason, fleet.sim.event())
        tenant._move = move
        self._pending.setdefault(src, []).append(move)
        if src not in self._hooked:
            self._hooked.add(src)
            fleet.stacks[src].scheduler.boundary_hooks.append(
                self._hook_for(src)
            )
        return move

    # ------------------------------------------------------------------
    # The engagement-boundary hook (a generator, run by the scheduler)
    # ------------------------------------------------------------------
    def _hook_for(self, src: int):
        def boundary_hook(_scheduler):
            yield from self._commit_parked(src)

        return boundary_hook

    def _commit_parked(self, src: int):
        moves = self._pending.get(src, [])
        for move in list(moves):
            if move.tenant._move is not move:
                # Lapsed: the tenant was reincarnated elsewhere (device
                # loss beat us to it) or already resumed.
                moves.remove(move)
                continue
            if move.tenant.task is None or not move.tenant.task.alive:
                moves.remove(move)  # killed while pending; move lapses
                continue
            if not move.parked:
                continue  # still mid-round; next boundary picks it up
            moves.remove(move)
            if self.fleet.stacks[move.dst].lost:
                # Target vanished while we waited: abandon the move and
                # resume the tenant in place on the source.
                move.tenant._move = None
                move.resumed.trigger()
                continue
            yield from self._commit(move)

    def _commit(self, move: PendingMove):
        fleet = self.fleet
        tenant = move.tenant
        src_stack = fleet.stacks[move.src]
        src_trace = src_stack.trace
        if src_trace.enabled:
            src_trace.emit(
                fleet.sim.now, "fleet", events.FLEET_MIGRATE_BEGIN,
                task=tenant.name, src=move.src, dst=move.dst,
                reason=move.reason,
            )
        # Tear down on the source: contexts killed, scheduler state
        # (virtual time, engagement tracking) released via on_task_exit.
        process = tenant.task.process
        src_stack.kernel.exit_task(tenant.task)
        cost = fleet.costs.migration_cost_us
        if cost > 0:
            # Charged inside the source device's engagement episode.
            yield cost
        # Rebind to the target; the tenant re-opens its context/channel
        # (context re-create) when it resumes.
        task = fleet.rebind(tenant, move.src, move.dst, move.reason, cost)
        task.process = process
        move.resumed.trigger()
