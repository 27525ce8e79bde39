"""Dataflow facts over the :class:`~repro.staticcheck.graph.ProjectModel`.

The first client is RNG-stream discipline (NEON502).  The repo's
determinism contract says every random draw comes from a *named, seeded
stream* — :class:`repro.sim.rng.RngRegistry` (simulation) or the fault
injector's per-point streams — so that adding or removing one component
never perturbs another's draws.  Per-file rules already catch unseeded
constructors (NEON203) and ``import random`` (NEON202); what they cannot
see is a *seeded* generator that escapes to module scope and is then
shared across components, or one that flows across modules into
scheduler/workload code.  This module computes the facts those judgments
need:

* every RNG **creation site** in the program (which constructor, where,
  and whether the instance is bound at module scope — an *escape*);
* the set of **escaped global streams** keyed by qualified name;
* every **flow** of an escaped stream into another module via imports.

The analysis is name-based and conservative: it follows single-target
module-level assignments and import bindings, which is exactly the shape
shared-RNG bugs take in practice (``GLOBAL_RNG = default_rng(...)`` in a
helper, ``from helper import GLOBAL_RNG`` in a scheduler).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.staticcheck.graph import MODULE_NODE, FunctionInfo, ProjectModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config


@dataclasses.dataclass(frozen=True)
class RngCreation:
    """One call to an RNG constructor somewhere in the program."""

    module: str
    #: Qualified function containing the call; ``<module>`` for top level.
    function: str
    lineno: int
    col: int
    constructor: str  # fully expanded ("numpy.random.default_rng")
    #: Module-level name the instance is bound to, when it escapes.
    global_name: Optional[str] = None

    @property
    def escapes(self) -> bool:
        return self.global_name is not None


@dataclasses.dataclass(frozen=True)
class RngFlow:
    """An escaped global stream reaching another module via an import."""

    creation: RngCreation
    into_module: str
    lineno: int  # reference/import line in the receiving module
    local_name: str


class RngFacts:
    """RNG creation sites and cross-module flows for one project model."""

    def __init__(self, model: ProjectModel, config: "Config") -> None:
        self.model = model
        self.config = config
        self.creations: list[RngCreation] = []
        #: qualified global name ("mod.NAME") -> creation site.
        self.globals: dict[str, RngCreation] = {}
        self.flows: list[RngFlow] = []
        self._collect_creations()
        self._collect_flows()

    # ------------------------------------------------------------------
    def _collect_creations(self) -> None:
        constructors = set(self.config.rng_constructors)
        for function in self.model.iter_functions():
            info = self.model.modules[function.module]
            module_level = function.name == MODULE_NODE
            for site in function.calls:
                if site.external not in constructors:
                    continue
                global_name = None
                if module_level:
                    global_name = self._bound_global(info.constants, site.lineno)
                self.creations.append(
                    RngCreation(
                        module=function.module,
                        function=function.qualname,
                        lineno=site.lineno,
                        col=site.col,
                        constructor=site.external,
                        global_name=global_name,
                    )
                )
        for creation in self.creations:
            if creation.global_name is not None:
                qualified = f"{creation.module}.{creation.global_name}"
                self.globals[qualified] = creation

    @staticmethod
    def _bound_global(constants: dict, lineno: int) -> Optional[str]:
        for name, definition in constants.items():
            if definition.lineno == lineno:
                return name
        return None

    # ------------------------------------------------------------------
    def _collect_flows(self) -> None:
        if not self.globals:
            return
        for module_name in sorted(self.model.modules):
            info = self.model.modules[module_name]
            for local, binding in sorted(info.bindings.items()):
                if not binding.runtime:
                    continue
                creation = self.globals.get(binding.target)
                if creation is None or creation.module == module_name:
                    continue
                self.flows.append(
                    RngFlow(
                        creation=creation,
                        into_module=module_name,
                        lineno=binding.lineno,
                        local_name=local,
                    )
                )


def reaches_internal(
    function: FunctionInfo, config: "Config"
) -> Optional[tuple[str, int]]:
    """First runtime reference from ``function`` into device-internal state.

    Returns ``(qualified_symbol, lineno)`` or None.  Used by NEON501 to
    treat helper functions that *reference* internal symbols (not just
    call into internal modules) as taint sinks.
    """
    for ref in function.refs:
        if config.is_internal_import(ref.target):
            return ref.target, ref.lineno
    return None


__all__ = ["RngCreation", "RngFacts", "RngFlow", "reaches_internal"]
