"""Picklable experiment cells.

Every paper experiment decomposes into independent, deterministic
*cells*: one fully wired simulation (scheduler + workload mix + horizon +
seed + parameters) producing a ``dict[str, WorkloadResult]``.  A
:class:`CellSpec` is the declarative, picklable description of one such
cell, built from :class:`WorkloadSpec` entries instead of closures so it
can cross a process boundary and be shared by content key within one
process.  The same type describes fleet cells (``devices > 1``,
:mod:`repro.fleet`).

Workload specs name a *kind* from a small registry (``"app"`` →
:func:`repro.workloads.apps.make_app`, ``"throttle"`` →
:class:`repro.workloads.throttle.Throttle`, and the adversarial
``"infinite-kernel"`` and ``"greedy-batcher"``; extendable via
:func:`register_workload_kind`) plus positional/keyword arguments.
Every kind a driver uses is registered here, so a pool worker that only
unpickles a spec can build it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Optional

from repro.faults.plan import FaultPlan
from repro.gpu.params import GpuParams
from repro.osmodel.costs import CostParams
from repro.workloads.adversarial import GreedyBatcher, InfiniteKernel
from repro.workloads.apps import make_app
from repro.workloads.base import Workload
from repro.workloads.throttle import Throttle

#: Registry of named workload factory kinds; values are callables invoked
#: as ``factory(*args, **kwargs)`` and returning a fresh :class:`Workload`.
WORKLOAD_KINDS: dict[str, Callable[..., Workload]] = {}


def register_workload_kind(name: str, factory: Callable[..., Workload]) -> None:
    """Register (or replace) a named workload factory kind."""
    WORKLOAD_KINDS[name] = factory


register_workload_kind("app", make_app)
register_workload_kind("throttle", Throttle)
register_workload_kind("infinite-kernel", InfiniteKernel)
register_workload_kind("greedy-batcher", GreedyBatcher)


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of one workload instance.

    ``kwargs`` is stored as a sorted tuple of ``(name, value)`` pairs so
    the spec stays hashable and its content key is order-insensitive.
    """

    kind: str
    args: tuple = ()
    kwargs: tuple = ()

    @classmethod
    def of(cls, kind: str, *args: Any, **kwargs: Any) -> "WorkloadSpec":
        return cls(kind, args=tuple(args), kwargs=tuple(sorted(kwargs.items())))

    @classmethod
    def app(cls, name: str, instance: Optional[str] = None) -> "WorkloadSpec":
        """A Table 1 application by profile name."""
        if instance is None:
            return cls.of("app", name)
        return cls.of("app", name, instance=instance)

    @classmethod
    def throttle(cls, request_size_us: float, **kwargs: Any) -> "WorkloadSpec":
        """The Throttle microbenchmark at a given request size."""
        return cls.of("throttle", request_size_us, **kwargs)

    def build(self) -> Workload:
        """Instantiate a fresh workload from this spec."""
        try:
            factory = WORKLOAD_KINDS[self.kind]
        except KeyError:
            known = ", ".join(sorted(WORKLOAD_KINDS))
            raise KeyError(
                f"unknown workload kind {self.kind!r}; known: {known}"
            ) from None
        return factory(*self.args, **dict(self.kwargs))


def _jsonable(value: Any) -> Any:
    """Normalize a spec field into deterministic JSON-encodable form."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                field.name: _jsonable(getattr(value, field.name))
                for field in fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(value[key]) for key in sorted(value)}
    if hasattr(value, "name") and not isinstance(value, (str, int, float, bool)):
        # Enums (RequestKind) and similar named constants.
        return f"{type(value).__name__}.{value.name}"
    return value


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: a complete simulation, declaratively.

    Running a cell is a pure function of its fields (simulations are
    deterministic per seed), which is what makes both the process-pool
    fan-out and sharing results by content key sound.
    """

    scheduler: str
    workloads: tuple[WorkloadSpec, ...]
    duration_us: float
    warmup_us: float
    seed: int = 0
    costs: Optional[CostParams] = None
    gpu_params: Optional[GpuParams] = None
    #: Optional fault plan installed for the run (repro.faults).
    fault_plan: Optional[FaultPlan] = None
    #: Devices in the simulated fleet; one is the paper's system.
    devices: int = 1
    #: Fleet placement and global share policy (repro.fleet registries).
    placement: str = "least-loaded"
    policy: str = "fleet-fair"
    #: Planned migrations: ``(at_us, tenant, dst_device)`` requests, each
    #: committing at the source's next engagement boundary.
    moves: tuple = ()

    @classmethod
    def solo(
        cls,
        workload: WorkloadSpec,
        duration_us: float,
        warmup_us: float,
        seed: int = 0,
        costs: Optional[CostParams] = None,
        gpu_params: Optional[GpuParams] = None,
    ) -> "CellSpec":
        """A standalone direct-access baseline run of one workload."""
        return cls(
            scheduler="direct",
            workloads=(workload,),
            duration_us=duration_us,
            warmup_us=warmup_us,
            seed=seed,
            costs=costs,
            gpu_params=gpu_params,
        )

    @property
    def is_fleet(self) -> bool:
        """Several devices or planned moves: the fleet fields matter."""
        return self.devices > 1 or bool(self.moves)

    def content_key(self) -> str:
        """Stable content hash identifying this cell's full configuration.

        It hashes the configuration only, not the code that runs it, so a
        key identifies a result only within one process.
        """
        payload = {
            "scheduler": self.scheduler,
            "workloads": [
                {"kind": w.kind, "args": _jsonable(w.args),
                 "kwargs": _jsonable(dict(w.kwargs))}
                for w in self.workloads
            ],
            "duration_us": self.duration_us,
            "warmup_us": self.warmup_us,
            "seed": self.seed,
            "costs": _jsonable(self.costs),
            "gpu_params": _jsonable(self.gpu_params),
        }
        if self.fault_plan is not None:
            payload["fault_plan"] = _jsonable(self.fault_plan)
        # Fleet fields are keyed only for fleet runs: on one device with
        # no moves, placement and policy change nothing, so such cells
        # share one key.
        if self.is_fleet:
            payload["devices"] = self.devices
            payload["placement"] = self.placement
            payload["policy"] = self.policy
            payload["moves"] = _jsonable(self.moves)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def label(self) -> str:
        """Short human-readable tag for wall-time reporting.

        Cost-model and device parameters that differ from their defaults
        are appended (``:name=value,...``), so cells that differ only
        there get distinct labels.
        """
        if self.is_fleet:
            tag = (
                f"fleet{self.devices}:{self.scheduler}:"
                f"{len(self.workloads)}ten:{self.placement}:{self.policy}"
                f":s{self.seed}"
            )
            if self.fault_plan is not None:
                tag += f"+{self.fault_plan.name}"
        else:
            tag = f"{self.scheduler}:" + "+".join(
                "-".join(str(a) for a in (w.kind,) + w.args)
                for w in self.workloads
            )
        changed: list[str] = []
        for params in (self.costs, self.gpu_params):
            if params is not None:
                default = type(params)()
                changed += [
                    f"{field.name}={getattr(params, field.name)}"
                    for field in fields(params)
                    if getattr(params, field.name) != getattr(default, field.name)
                ]
        if changed:
            tag += ":" + ",".join(changed)
        return tag

    def run(self):
        """Execute this cell and return its per-workload results."""
        # Imported here: repro.fleet, which the runner loads, imports
        # this module.
        from repro.experiments.runner import build_env, run_workloads

        env = build_env(
            self.scheduler,
            seed=self.seed,
            costs=self.costs,
            gpu_params=self.gpu_params,
            fault_plan=self.fault_plan,
            devices=self.devices,
            placement=self.placement,
            policy=self.policy,
        )
        workloads = [workload.build() for workload in self.workloads]
        return run_workloads(
            env, workloads, self.duration_us, self.warmup_us, self.moves
        )
