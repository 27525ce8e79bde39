"""Model-based rules (NEON301/302, NEON5xx) — transitive, provable properties.

These run over the linked :class:`~repro.staticcheck.graph.ProjectModel`
rather than one file at a time, so the guarantees they enforce are
*transitive*: no laundering a boundary violation through a helper
module, no smuggling a shared RNG stream across an import, no policy
code wandering off the declared observation API, no registry entry that
nothing in the program can ever produce.

* **NEON301/302** — a generator call is discarded (301) or ``yield``-ed
  (302); see :mod:`repro.staticcheck.rules.generators` for how a call's
  resolved target decides that it is one.
* **NEON501** — transitive boundary taint.  Any call-graph path from a
  boundary module (``repro.core``) to device-internal code
  (``repro.gpu`` / ``repro.osmodel``) that does not pass through a
  sanctioned observation layer (``repro.neon`` …) is an error; the full
  call chain is attached to the diagnostic.
* **NEON502** — RNG-stream dataflow.  Raw RNG constructors may not
  escape to module scope, may not appear at all in scheduler/workload
  code (which only ever *receives* streams), and escaped globals may
  not flow into scheduler/workload modules via imports.
* **NEON503** — observation-API isolation.  In observation-client
  modules, every attribute touched on the interception manager
  (receivers named ``neon``) must be in the declarative
  ``observation_api`` allowlist in :mod:`repro.staticcheck.config` —
  the enforcement hook for the ROADMAP's pluggable policy layer.
* **NEON504** — dead registry entries.  Trace event kinds and fault
  injection points that are registered but never emitted/armed anywhere
  in the analyzed program (the inverse of NEON402/404).  Skipped when
  the registry module is outside the analyzed set, so partial scans
  never produce false positives.
* **NEON505** — unused imports.  Module-locally unused bindings; in a
  package ``__init__`` a binding counts as used when ``__all__`` lists
  it or any analyzed module imports it through the package
  (whole-program re-export awareness).
"""

from __future__ import annotations

import ast
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional

from repro.staticcheck.core import Violation, scope_statements
from repro.staticcheck.dataflow import RngFacts, reaches_internal
from repro.staticcheck.graph import CallSite, FunctionInfo, ProjectModel, dotted_name
from repro.staticcheck.rules.generators import _call_name
from repro.staticcheck.rules.registries import (
    REGISTRIES,
    Registry,
    name_of,
    registered_name_args,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Longest call chain rendered in a NEON501 diagnostic.
MAX_CHAIN = 12


# ----------------------------------------------------------------------
# NEON301/302 — virtual-time generators called but not driven
# ----------------------------------------------------------------------
def check_discarded_generators(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    for path, call, name in _generator_calls(model, config, ast.Expr):
        yield Violation(
            path=path,
            line=call.lineno,
            col=call.col_offset,
            rule_id="NEON301",
            message=(
                f"result of virtual-time generator '{name}()' is discarded — "
                "a silent no-op; drive it with 'yield from'"
            ),
        )


def check_yielded_generators(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    for path, call, name in _generator_calls(model, config, ast.Yield):
        yield Violation(
            path=path,
            line=call.lineno,
            col=call.col_offset,
            rule_id="NEON302",
            message=(
                f"'yield {name}(...)' hands the simulator a generator object "
                "it cannot wait on; use 'yield from'"
            ),
        )


def _generator_calls(
    model: ProjectModel, config: "Config", holder: type
) -> Iterator[tuple[str, ast.Call, Optional[str]]]:
    """``(path, call, call name)`` for each generator call that is the
    value of a ``holder`` node (a bare statement or a ``yield``)."""
    for module in sorted(model.modules):
        info = model.modules[module]
        # The model's resolved calls, by where each starts and what it names.
        sites: dict[tuple[int, int, str], CallSite] = {
            (site.lineno, site.col, site.raw): site
            for function in info.functions.values()
            for site in function.calls
        }
        for node in ast.walk(info.ctx.tree):
            if not (isinstance(node, holder) and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            site = sites.get((call.lineno, call.col_offset, dotted_name(call.func)))
            callee = site.callee if site is not None else None
            name = _call_name(call)
            if callee is None:
                is_generator = name in config.generator_methods
            else:
                is_generator = _yields(model.functions.get(callee))
            if is_generator:
                yield str(info.path), call, name


def _yields(function: Optional[FunctionInfo]) -> bool:
    return function is not None and any(
        isinstance(child, (ast.Yield, ast.YieldFrom))
        for child in scope_statements(function.node)
    )


# ----------------------------------------------------------------------
# NEON501 — transitive boundary taint
# ----------------------------------------------------------------------
def check_boundary_taint(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    """Call-graph paths from boundary code into device-internal state."""
    reported: set[tuple[str, int, str]] = set()
    for source in model.iter_functions():
        if not config.is_boundary_module(source.module):
            continue
        yield from _taint_paths(model, config, source, reported)


def _node_location(model: ProjectModel, qualname: str) -> tuple[str, int]:
    """(file, definition line) of a resolved call-graph node."""
    if qualname in model.functions:
        function = model.functions[qualname]
        return str(model.modules[function.module].path), function.lineno
    if qualname in model.classes:
        klass = model.classes[qualname]
        return str(model.modules[klass.module].path), klass.lineno
    return "<unknown>", 0


def _taint_paths(
    model: ProjectModel,
    config: "Config",
    source: FunctionInfo,
    reported: set[tuple[str, int, str]],
) -> Iterator[Violation]:
    # BFS; each queue entry is (function, chain-so-far, anchor_line) where
    # the chain carries (qualname, file, definition-line) hops and the
    # anchor is the call site inside the boundary module that starts the
    # offending path — the line the scheduler author owns.
    source_file = str(model.modules[source.module].path)
    queue: deque[
        tuple[FunctionInfo, tuple[tuple[str, str, int], ...], int]
    ] = deque()
    queue.append((source, ((source.qualname, source_file, source.lineno),), 0))
    visited: set[str] = {source.qualname}
    while queue:
        function, path, anchor_line = queue.popleft()
        if len(path) > MAX_CHAIN:
            continue
        for site in function.calls:
            callee = site.callee
            if callee is None:
                continue
            callee_module = model.node_module(callee)
            if callee_module is None:
                continue
            if config.is_sanctioned_module(callee_module):
                continue  # the observation layer touches internals by design
            hop_anchor = anchor_line or site.lineno
            callee_file, callee_def_line = _node_location(model, callee)
            hop_path = path + ((callee, callee_file, callee_def_line),)
            if config.is_internal_import(callee_module):
                yield from _report_taint(
                    config, source, source_file, hop_anchor, hop_path,
                    sink=callee, reported=reported,
                )
                continue
            callee_fn = model.functions.get(callee)
            if callee_fn is None:
                continue
            if not config.is_boundary_module(callee_module):
                # Symbol-reference taint ("the helper touches repro.gpu")
                # only when no resolved call will produce a sharper chain
                # through the same function — one finding per root cause.
                touch = None
                if not _has_direct_internal_call(model, config, callee_fn):
                    touch = reaches_internal(callee_fn, config)
                if touch is not None:
                    symbol, touch_line = touch
                    touch_path = hop_path + (
                        (f"touches {symbol}", callee_file, touch_line),
                    )
                    yield from _report_taint(
                        config, source, source_file, hop_anchor, touch_path,
                        sink=symbol, reported=reported,
                    )
            if callee not in visited:
                visited.add(callee)
                queue.append((callee_fn, hop_path, hop_anchor))


def _has_direct_internal_call(
    model: ProjectModel, config: "Config", function: FunctionInfo
) -> bool:
    for site in function.calls:
        if site.callee is None:
            continue
        module = model.node_module(site.callee)
        if module is not None and config.is_internal_import(module):
            return True
    return False


def _report_taint(
    config: "Config",
    source: FunctionInfo,
    anchor_file: str,
    anchor_line: int,
    path: tuple[tuple[str, str, int], ...],
    sink: str,
    reported: set[tuple[str, int, str]],
) -> Iterator[Violation]:
    key = (anchor_file, anchor_line, sink)
    if key in reported:
        return
    reported.add(key)
    hops = " -> ".join(hop[0] for hop in path)
    yield Violation(
        path=anchor_file,
        line=anchor_line,
        col=0,
        rule_id="NEON501",
        message=(
            f"call chain from boundary module '{source.module}' reaches "
            f"device-internal '{sink}' without passing through the "
            f"observation layer: {hops}"
        ),
        chain=path,
    )


# ----------------------------------------------------------------------
# NEON502 — RNG-stream dataflow
# ----------------------------------------------------------------------
def check_rng_flow(model: ProjectModel, config: "Config") -> Iterator[Violation]:
    facts = RngFacts(model, config)
    for creation in facts.creations:
        if config.is_rng_module(creation.module):
            continue
        path = str(model.modules[creation.module].path)
        if creation.escapes:
            yield Violation(
                path=path,
                line=creation.lineno,
                col=creation.col,
                rule_id="NEON502",
                message=(
                    f"RNG stream '{creation.global_name}' "
                    f"({creation.constructor}) escapes to module scope: a "
                    "shared global generator couples every caller's draws; "
                    "derive per-component streams from "
                    "repro.sim.rng.RngRegistry instead"
                ),
            )
        elif config.is_rng_client_module(creation.module):
            yield Violation(
                path=path,
                line=creation.lineno,
                col=creation.col,
                rule_id="NEON502",
                message=(
                    f"scheduler/workload code constructs its own RNG "
                    f"({creation.constructor}); accept a seeded stream "
                    "parameter fed from repro.sim.rng.RngRegistry (or the "
                    "fault injector's per-point streams) instead"
                ),
            )
    for flow in facts.flows:
        if not config.is_rng_client_module(flow.into_module):
            continue
        receiver = model.modules[flow.into_module]
        creation_path = model.modules[flow.creation.module].path
        yield Violation(
            path=str(receiver.path),
            line=flow.lineno,
            col=0,
            rule_id="NEON502",
            message=(
                f"global RNG stream '{flow.creation.global_name}' (created "
                f"at {creation_path}:{flow.creation.lineno}) flows into "
                f"scheduler/workload module '{flow.into_module}' as "
                f"'{flow.local_name}'; shared streams break per-component "
                "determinism — pass a named RngRegistry stream instead"
            ),
            chain=(
                (
                    f"{flow.creation.module}.{flow.creation.global_name}",
                    str(creation_path),
                    flow.creation.lineno,
                ),
                (
                    f"{flow.into_module} (import)",
                    str(receiver.path),
                    flow.lineno,
                ),
            ),
        )


# ----------------------------------------------------------------------
# NEON503 — observation-API isolation
# ----------------------------------------------------------------------
def check_observation_api(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    for module_name in sorted(model.modules):
        if not config.is_observation_client_module(module_name):
            continue
        info = model.modules[module_name]
        neon_binding = info.bindings.get("neon")
        neon_is_module = neon_binding is not None and neon_binding.kind == "module"
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            receiver = node.value
            if isinstance(receiver, ast.Name):
                if receiver.id != "neon" or neon_is_module:
                    continue
            elif isinstance(receiver, ast.Attribute):
                if receiver.attr != "neon":
                    continue
            else:
                continue
            if node.attr in config.observation_api:
                continue
            yield Violation(
                path=str(info.path),
                line=node.lineno,
                col=node.col_offset,
                rule_id="NEON503",
                message=(
                    f"'.{node.attr}' is not part of the declared "
                    "interception-observable surface (observation_api in "
                    "repro.staticcheck.config); schedulers and policies may "
                    "only use the allowlisted InterceptionManager API"
                ),
            )


# ----------------------------------------------------------------------
# NEON504 — dead/unregistered registry entries
# ----------------------------------------------------------------------
def check_dead_registry(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    used: dict[Registry, set[str]] = {registry: set() for registry in REGISTRIES}
    for info in model.modules.values():
        for registry, expr in registered_name_args(info.ctx.tree):
            name = name_of(expr)
            if name is not None:
                used[registry].add(name)
    for registry in REGISTRIES:
        yield from _dead_entries(model, registry, used[registry])


def _dead_entries(
    model: ProjectModel, registry: Registry, used: set[str]
) -> Iterator[Violation]:
    info = model.modules.get(registry.module)
    if info is None:
        return  # partial scan: the registry is outside the analyzed set
    register_call = registry.register_call
    for name in sorted(info.constants):
        definition = info.constants[name]
        call = definition.call or ""
        if not (call == register_call or call.endswith(f".{register_call}")):
            continue
        if name in used:
            continue
        yield Violation(
            path=str(info.path),
            line=definition.lineno,
            col=0,
            rule_id="NEON504",
            message=(
                f"{registry.domain} {registry.noun} constant '{name}' is "
                f"registered but never {registry.verb} anywhere in the "
                "analyzed program; wire up a site or remove the "
                "registration (dead entries rot the taxonomy)"
            ),
        )


# ----------------------------------------------------------------------
# NEON505 — unused imports (whole-program re-export aware)
# ----------------------------------------------------------------------
def check_unused_imports(
    model: ProjectModel, config: "Config"
) -> Iterator[Violation]:
    reexport_targets = _reexport_targets(model)
    for module_name in sorted(model.modules):
        info = model.modules[module_name]
        is_package_init = info.path.name == "__init__.py"
        for local in sorted(info.bindings):
            binding = info.bindings[local]
            if local.startswith("_"):
                continue
            if binding.target.split(".", 1)[0] == "__future__":
                continue
            if local in info.used_names:
                continue
            if is_package_init:
                qualified = f"{module_name}.{local}"
                if info.exported is not None and local in info.exported:
                    continue
                if qualified in reexport_targets:
                    continue
                message = (
                    f"'{local}' is imported but neither listed in __all__, "
                    "used in this package, nor imported from it by any "
                    "analyzed module"
                )
            else:
                message = (
                    f"'{local}' (from '{binding.target}') is imported but "
                    "never used in this module"
                )
            yield Violation(
                path=str(info.path),
                line=binding.lineno,
                col=binding.col,
                rule_id="NEON505",
                message=message,
            )


def _reexport_targets(model: ProjectModel) -> set[str]:
    """Every qualified name some analyzed module imports from another."""
    targets: set[str] = set()
    for info in model.modules.values():
        for binding in info.bindings.values():
            targets.add(binding.target)
            # ``from pkg.sub import name``: also marks pkg.sub used.
            head, _, _ = binding.target.rpartition(".")
            if head:
                targets.add(head)
    return targets


#: Rule id -> checker function, in catalog order.  The engine times and
#: runs these over one shared project model.
WHOLE_PROGRAM_CHECKS = {
    "NEON301": check_discarded_generators,
    "NEON302": check_yielded_generators,
    "NEON501": check_boundary_taint,
    "NEON502": check_rng_flow,
    "NEON503": check_observation_api,
    "NEON504": check_dead_registry,
    "NEON505": check_unused_imports,
}

__all__ = [
    "WHOLE_PROGRAM_CHECKS",
    "check_boundary_taint",
    "check_dead_registry",
    "check_discarded_generators",
    "check_observation_api",
    "check_rng_flow",
    "check_unused_imports",
    "check_yielded_generators",
]
