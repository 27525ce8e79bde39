"""The run path: device stacks inside one simulator, and the run loop.

:func:`build_env` wires one GPU/kernel/scheduler stack per device —
each with its own interception state, polling and local scheduler — and
all stacks share one :class:`~repro.sim.engine.Simulator` (which also
numbers every task, context, channel and request), one RNG registry, one
metrics registry and one trace recorder.  :func:`run_workloads` places
the workloads, runs the clock and summarizes each workload's steady
state.

The paper's system is the fleet of one: its lone stack writes the base
recorder directly and nothing is placed, migrated or re-weighted, so a
single-device run is exactly the paper's single-GPU model.  With more
devices each stack writes through a
:class:`~repro.sim.trace.DeviceTraceView` that tags every record with its
``device`` id, which is what lets the global fair-share layer (and the
windowed observability stack) attribute events without touching ground
truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.base import SchedulerBase, scheduler_registry
from repro.faults.injector import Injector
from repro.faults.plan import FaultPlan
from repro.faults.registry import FLEET_DEVICE_LOSS
from repro.fleet.migration import MigrationManager, MigrationRecord
from repro.fleet.placement import PlacementPolicy, placement_registry
from repro.fleet.policies import GlobalPolicy, global_policy_registry
from repro.fleet.share import GlobalFairShare
from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.metrics.rounds import RoundStats
from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.osmodel.costs import CostParams
from repro.osmodel.kernel import ChannelQuotaPolicy, Kernel, MemoryQuotaPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import DeviceTraceView, NullRecorder, TraceRecorder
from repro.workloads.base import Workload

#: Default measurement horizon (µs of virtual time) and warmup.
DEFAULT_DURATION_US = 400_000.0
DEFAULT_WARMUP_US = 60_000.0

SchedulerSpec = Union[str, SchedulerBase]
PlacementSpec = Union[str, PlacementPolicy]
PolicySpec = Union[str, GlobalPolicy, None]


@dataclass(frozen=True)
class WorkloadResult:
    """Per-workload outcome of one simulation run."""

    name: str
    rounds: RoundStats
    killed: bool
    kill_reason: Optional[str]
    mean_request_us: float
    requests_submitted: int
    ground_truth_usage_us: float
    #: Flat per-task metrics snapshot (counters, histogram summaries, and
    #: engaged/disengaged channel time) taken at the end of the run.
    metrics: dict = field(default_factory=dict)

    @property
    def mean_round_us(self) -> float:
        return self.rounds.mean_us


@dataclass
class DeviceStack:
    """One device's full stack: GPU model, kernel, local scheduler."""

    device_id: int
    device: GpuDevice
    kernel: Kernel
    scheduler: SchedulerBase
    #: The stack's trace handle — the base recorder for a fleet of one,
    #: a :class:`DeviceTraceView` tagging ``device`` otherwise.
    trace: TraceRecorder
    lost: bool = False


class SimulationEnv:
    """One wired system: device stacks, placement, migration, shares."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        trace: TraceRecorder,
        metrics: MetricsRegistry,
        faults: Optional[Injector],
        stacks: List[DeviceStack],
        placement: PlacementPolicy,
        share: Optional[GlobalFairShare],
        costs: CostParams,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.trace = trace
        self.metrics = metrics
        #: Fault injector, when a fault plan is installed (repro.faults).
        self.faults = faults
        self.stacks = stacks
        self.placement = placement
        self.share = share
        self.costs = costs
        self.migrations = MigrationManager(self)
        #: Workloads in placement order.
        self.tenants: List[Workload] = []
        #: Tenant name -> current device id.
        self.tenant_device: Dict[str, int] = {}
        #: Tenant name -> every (device, task) incarnation, in order;
        #: ground-truth usage sums over these at the end of a run.
        self.tenant_tasks: Dict[str, List[Tuple[int, object]]] = {}
        #: Devices lost to fault injection, in loss order.
        self.lost_devices: List[int] = []

    # ------------------------------------------------------------------
    # The single device's stack
    # ------------------------------------------------------------------
    def _only_stack(self) -> DeviceStack:
        if len(self.stacks) != 1:
            raise AttributeError(
                f"this env has {len(self.stacks)} devices; "
                "pick one from env.stacks"
            )
        return self.stacks[0]

    @property
    def device(self) -> GpuDevice:
        return self._only_stack().device

    @property
    def kernel(self) -> Kernel:
        return self._only_stack().kernel

    @property
    def scheduler(self) -> SchedulerBase:
        return self._only_stack().scheduler

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def device_of(self, tenant: Workload) -> int:
        return self.tenant_device[tenant.name]

    def live_stacks(self) -> List[DeviceStack]:
        return [stack for stack in self.stacks if not stack.lost]

    def place(
        self, tenant: Workload, device_id: Optional[int] = None
    ) -> int:
        """Assign a device (via the placement policy) and start the tenant."""
        if tenant.name in self.tenant_device:
            raise ValueError(f"tenant {tenant.name!r} already placed")
        if device_id is None:
            lost = [stack.device_id for stack in self.stacks if stack.lost]
            device_id = self.placement.assign(tenant.name, exclude=lost)
        stack = self.stacks[device_id]
        if stack.lost:
            raise ValueError(f"device {device_id} was lost")
        self.tenants.append(tenant)
        self.tenant_device[tenant.name] = device_id
        self.placement.placed(device_id)
        tenant.fleet = self
        # A fleet of one makes no placement decision worth tracing: its
        # stream is exactly the single-device model's.
        if stack.trace.enabled and len(self.stacks) > 1:
            stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_PLACE,
                task=tenant.name, policy=self.placement.name,
            )
        tenant.start(self.sim, stack.kernel, self.rng)
        self.tenant_tasks.setdefault(tenant.name, []).append(
            (device_id, tenant.task)
        )
        return device_id

    def note_move(self, tenant: Workload, src: int, dst: int, task) -> None:
        """Bookkeeping for a committed planned migration."""
        self.tenant_device[tenant.name] = dst
        self.placement.departed(src)
        self.placement.placed(dst)
        self.tenant_tasks.setdefault(tenant.name, []).append((dst, task))

    # ------------------------------------------------------------------
    # Device loss and recovery
    # ------------------------------------------------------------------
    def lose_device(self, device_id: int) -> None:
        """Drop a device: tear its tenants down, migrate or escalate."""
        stack = self.stacks[device_id]
        if stack.lost:
            return
        stack.lost = True
        self.lost_devices.append(device_id)
        survivors = self.live_stacks()
        victims = [
            tenant
            for tenant in self.tenants
            if self.tenant_device.get(tenant.name) == device_id
            and tenant.task is not None
            and tenant.task.alive
        ]
        if stack.trace.enabled:
            stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_DEVICE_LOST,
                tenants=[tenant.name for tenant in victims],
            )
        self.metrics.inc("fleet_device_losses")
        lost_ids = [s.device_id for s in self.stacks if s.lost]
        for tenant in victims:
            if survivors and hasattr(tenant, "_reincarnation"):
                # Migration-based recovery: pick a survivor now; the
                # tenant rebinds there when the kill reaches it.
                dst = self.placement.assign(tenant.name, exclude=lost_ids)
                tenant._reincarnation = self.stacks[dst]
            else:
                # No survivor (or a non-fleet workload): the kill stands.
                self.placement.departed(device_id)
            stack.kernel.kill_task(tenant.task, "device lost")

    def reincarnate(self, tenant, dst_stack: DeviceStack) -> None:
        """Restart a tenant of a lost device on the chosen survivor.

        Called from the tenant's own kill handler; spawns a fresh process
        (charged the migration cost up front) bound to a fresh task on
        the destination kernel.
        """
        src = self.tenant_device[tenant.name]
        dst = dst_stack.device_id
        cost = self.costs.migration_cost_us
        if dst_stack.trace.enabled:
            dst_stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_MIGRATE_BEGIN,
                task=tenant.name, src=src, dst=dst, reason="device_loss",
            )
        task = dst_stack.kernel.create_task(tenant.name)
        task.workload = tenant
        tenant.kernel = dst_stack.kernel
        tenant.task = task
        tenant._pipelines.clear()
        task.process = self.sim.spawn(
            self._restart(tenant, cost), name=f"task.{tenant.name}"
        )
        self.tenant_device[tenant.name] = dst
        self.placement.departed(src)
        self.placement.placed(dst)
        self.tenant_tasks.setdefault(tenant.name, []).append((dst, task))
        record = MigrationRecord(
            self.sim.now, tenant.name, src, dst, "device_loss", cost
        )
        self.migrations.records.append(record)
        tenant.migrations.append(record)
        self.metrics.inc("fleet_migrations", tenant.name)
        if dst_stack.trace.enabled:
            dst_stack.trace.emit(
                self.sim.now, "fleet", events.FLEET_MIGRATE_END,
                task=tenant.name, src=src, dst=dst, reason="device_loss",
                cost_us=cost,
            )

    def _restart(self, tenant, cost: float):
        if cost > 0:
            yield cost
        yield from tenant._run()

    # ------------------------------------------------------------------
    # Fault-injection wiring (fleet.device_loss)
    # ------------------------------------------------------------------
    def spawn_loss_controller(self) -> bool:
        """Poll the injector for armed device-loss specs, if any exist.

        Only spawned when the fault plan actually touches
        ``fleet.device_loss`` — otherwise the fleet runs with zero extra
        simulator events, like every other absent-injector path.
        """
        if self.faults is None:
            return False
        if FLEET_DEVICE_LOSS not in self.faults.plan.points():
            return False
        self.sim.spawn(self._loss_controller(), name="fleet.loss-controller")
        return True

    def _loss_controller(self):
        period = self.costs.poll_interval_us
        while True:
            yield period
            for stack in self.stacks:
                if stack.lost:
                    continue
                spec = self.faults.arm(
                    FLEET_DEVICE_LOSS, f"device{stack.device_id}"
                )
                if spec is not None:
                    self.lose_device(stack.device_id)
            if all(stack.lost for stack in self.stacks):
                return


def _make_scheduler(spec: SchedulerSpec) -> SchedulerBase:
    if not isinstance(spec, str):
        return spec
    try:
        return scheduler_registry[spec]()
    except KeyError:
        known = ", ".join(sorted(scheduler_registry))
        raise KeyError(f"unknown scheduler {spec!r}; known: {known}") from None


def build_env(
    scheduler: SchedulerSpec = "direct",
    seed: int = 0,
    costs: Optional[CostParams] = None,
    gpu_params: Optional[GpuParams] = None,
    quota: Optional[ChannelQuotaPolicy] = None,
    memory_quota: Optional[MemoryQuotaPolicy] = None,
    trace_kinds: Optional[Iterable[str]] = None,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    devices: int = 1,
    placement: PlacementSpec = "least-loaded",
    policy: PolicySpec = "fleet-fair",
) -> SimulationEnv:
    """Wire up ``devices`` independent device stacks in one simulator.

    ``scheduler`` names a registered scheduler, built once per device; a
    ready-made instance can drive a single device only.  ``trace`` (a
    ready-made recorder, e.g. a capped ring buffer) takes precedence over
    ``trace_kinds`` (record only the listed kinds); without either, one
    device runs with the null recorder, which keeps tracing cost off the
    run, and a fleet with a non-retaining streaming recorder, which the
    global share layer consumes live.  ``fault_plan`` installs a
    :class:`repro.faults.Injector` at every registered injection point;
    without one the injector simply does not exist (zero cost, like
    tracing).  ``placement`` picks each workload's device and ``policy``
    re-weights the local schedulers across devices (``None`` disables
    it); a fleet of one has nothing to re-weight and gets no share layer.
    """
    if devices < 1:
        raise ValueError("a fleet needs at least one device")
    if devices > 1 and not isinstance(scheduler, str):
        raise ValueError(
            "a scheduler instance drives a single device; "
            "name a registered scheduler for a fleet"
        )
    # The runs of one monitor session record into one stream, so they share
    # an entity numbering; any other run numbers its entities from 1.
    monitor = getattr(trace, "monitor", None)
    sim = Simulator(monitor.id_counters if monitor is not None else None)
    rng = RngRegistry(seed)
    if trace is None:
        if trace_kinds is not None:
            trace = TraceRecorder(trace_kinds)
        elif devices == 1:
            trace = NullRecorder()
        else:
            trace = TraceRecorder(retain=False)
    if metrics is None:
        metrics = MetricsRegistry()
    faults = (
        Injector(fault_plan, sim, trace=trace, metrics=metrics)
        if fault_plan is not None
        else None
    )
    if costs is None:
        costs = CostParams()
    stacks: List[DeviceStack] = []
    for device_id in range(devices):
        view = trace if devices == 1 else DeviceTraceView(trace, device_id)
        device = GpuDevice(sim, gpu_params, view, metrics, faults=faults)
        kernel = Kernel(
            sim, device, costs, view, quota, memory_quota, metrics,
            faults=faults,
        )
        local = _make_scheduler(scheduler)
        kernel.attach_scheduler(local)
        stacks.append(DeviceStack(device_id, device, kernel, local, view))
    if isinstance(placement, str):
        try:
            placement = placement_registry[placement]()
        except KeyError:
            known = ", ".join(sorted(placement_registry))
            raise KeyError(
                f"unknown placement {placement!r}; known: {known}"
            ) from None
    placement.bind(range(devices))
    if isinstance(policy, str):
        try:
            policy = global_policy_registry[policy]()
        except KeyError:
            known = ", ".join(sorted(global_policy_registry))
            raise KeyError(
                f"unknown global policy {policy!r}; known: {known}"
            ) from None
    share = None
    if policy is not None and devices > 1 and trace.enabled:
        share = GlobalFairShare(policy, trace)
        trace.add_sink(share)
        for stack in stacks:
            share.watch(stack.device_id, stack.scheduler)
    env = SimulationEnv(
        sim, rng, trace, metrics, faults, stacks, placement, share, costs
    )
    env.spawn_loss_controller()
    return env


def _move_controller(env: SimulationEnv, moves: Sequence[Tuple[float, str, int]]):
    """Request planned migrations at their scheduled virtual times."""
    last = 0.0
    for at_us, tenant_name, dst in sorted(moves):
        delay = at_us - last
        if delay > 0:
            yield delay
        last = max(last, at_us)
        tenant = next(
            (t for t in env.tenants if t.name == tenant_name), None
        )
        if tenant is None or env.tenant_device.get(tenant_name) == dst:
            continue
        try:
            env.migrations.request(tenant, dst)
        except ValueError:
            # Target lost, tenant dead, or a move already pending; the
            # scheduled move simply lapses.
            pass


def run_workloads(
    env: SimulationEnv,
    workloads: Sequence[Workload],
    duration_us: float = DEFAULT_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    moves: Sequence[Tuple[float, str, int]] = (),
) -> dict[str, WorkloadResult]:
    """Place and start the workloads, run the clock, summarize steady state.

    On a fleet — more than one device, or any device lost — each
    workload's metrics snapshot also carries ``fleet_*`` keys
    (current/initial device, migration count, fleet size, devices lost)
    so farm-cached results carry enough to render fleet tables.  ``moves``
    schedules planned migrations as ``(at_us, tenant, dst_device)``
    requests; each commits at its source's next engagement boundary.
    """
    for workload in workloads:
        env.place(workload)
    if moves:
        env.sim.spawn(
            _move_controller(env, moves), name="fleet.move-controller"
        )
    env.sim.run(until=duration_us)
    monitor = getattr(env.trace, "monitor", None)
    if monitor is not None:
        # Close the final (possibly partial) streaming window before the
        # per-task metric snapshots below, so windows_closed / slo_*
        # counters cover the whole run.
        monitor.finalize(env.sim.now)
    engagement = {
        stack.device_id: stack.scheduler.neon.engagement.snapshot(env.sim.now)
        for stack in env.stacks
    }
    fleet_size = len(env.stacks)
    results: dict[str, WorkloadResult] = {}
    for workload in workloads:
        final_device = env.tenant_device[workload.name]
        task_metrics = env.metrics.task_view(workload.task.name)
        task_metrics.update(
            engagement[final_device].get(workload.task.name, {})
        )
        history = env.tenant_tasks.get(workload.name, [])
        usage = sum(
            env.stacks[device_id].device.task_usage(task)
            for device_id, task in history
        )
        if fleet_size > 1 or env.lost_devices:
            task_metrics["fleet_device"] = float(final_device)
            task_metrics["fleet_device_initial"] = float(
                history[0][0] if history else final_device
            )
            migrations = getattr(workload, "migrations", ())
            task_metrics["fleet_moves"] = float(len(migrations))
            task_metrics["fleet_loss_moves"] = float(
                sum(1 for move in migrations if move.reason == "device_loss")
            )
            task_metrics["fleet_devices"] = float(fleet_size)
            task_metrics["fleet_devices_lost"] = float(len(env.lost_devices))
        results[workload.name] = WorkloadResult(
            name=workload.name,
            rounds=workload.round_stats(warmup_us, duration_us),
            killed=workload.killed,
            kill_reason=workload.task.kill_reason,
            mean_request_us=workload.mean_request_size(),
            requests_submitted=len(workload.requests),
            ground_truth_usage_us=usage,
            metrics=task_metrics,
        )
    return results
