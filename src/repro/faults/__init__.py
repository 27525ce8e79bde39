"""Fault injection for the simulated driver stack.

The subsystem has three parts:

* :mod:`repro.faults.registry` — the typed catalog of injection points
  instrumented across the GPU, kernel, and NEON layers.
* :mod:`repro.faults.plan` — declarative, seeded
  :class:`FaultPlan`/:class:`FaultSpec` descriptions of which points
  misbehave, when, and how hard (JSON round-trip, composable).
* :mod:`repro.faults.injector` — the :class:`Injector` that evaluates a
  plan at each instrumented site during a run.

Install a plan with ``build_env(..., fault_plan=plan)`` or a
``CellSpec(fault_plan=plan)``;
with no plan installed every injection site is a single ``is None``
check and the simulation is byte-identical to an uninstrumented run.
See docs/FAULTS.md for the full schema and hardening semantics.
"""

from repro.faults.injector import Injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.registry import (
    INJECTION_POINTS,
    InjectionPointSpec,
    registered_points,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "Injector",
    "INJECTION_POINTS",
    "InjectionPointSpec",
    "registered_points",
]
