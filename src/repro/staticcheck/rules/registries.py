"""Registered-name rules (NEON401–404) — the typed registries.

Every ``trace.emit(...)`` site must name its event kind through a
constant registered in :mod:`repro.obs.events`, and every
``faults.arm(...)`` site its injection point through a constant
registered in :mod:`repro.faults.registry`.  Each registry is the single
source of truth for what a trace can contain and where faults can
strike, so analysis tooling, fault plans and the docs never meet a name
the simulation does not know.

* **NEON401** / **NEON403** — the kind/point argument is a string
  literal (``trace.emit(now, src, "fault")``).  Literals drift: a typo
  records an orphan kind, or arms a point no plan can reference.
* **NEON402** / **NEON404** — the argument is an identifier, but not one
  of the registered constants the registry module exports
  (``events.FAULT`` passes; a constant defined elsewhere does not).

:data:`REGISTRIES` holds one row per registry, and
:func:`registered_name_args` is the one scan both these rules and
NEON504's usage collection (:mod:`repro.staticcheck.rules.wholeprogram`)
read.  A call is a registered-name site when its method is the row's
and its receiver's terminal name, with leading underscores stripped,
ends in the row's suffix: ``trace.emit``, ``self._trace.emit``,
``src_trace.emit`` and ``self.device.faults.arm`` all count; a
delegating ``self._base.emit`` does not.  Conditional arguments
(``A if aborted else B``) yield both branches.  NEON401–404 apply to
modules of the ``repro`` package only — test doubles and out-of-tree
recorders stay free.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import TYPE_CHECKING, Iterator, Optional

from repro.faults import registry as fault_registry
from repro.obs import events
from repro.staticcheck.core import ModuleContext, Violation

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: The package whose call sites NEON401–404 check.
SCOPE = "repro"


@dataclasses.dataclass(frozen=True)
class Registry:
    """One typed registry and the call sites that must name its entries."""

    #: Method a site calls (``emit``) and the suffix its receiver ends in.
    method: str
    receiver_suffix: str
    #: Where the registered name sits in the call: position and keyword.
    arg_index: int
    keyword: str
    #: The registry module, its constant names and its register function.
    module: str
    constant_names: frozenset[str]
    register_call: str
    #: Rule ids for a string-literal and an unregistered-constant name.
    literal_rule: str
    unregistered_rule: str
    #: Diagnostic wording: "trace event kind", "emitted".
    domain: str
    noun: str
    verb: str


REGISTRIES = (
    Registry(
        method="emit",
        receiver_suffix="trace",
        arg_index=2,
        keyword="kind",
        module="repro.obs.events",
        constant_names=events.constant_names(),
        register_call="register_event_kind",
        literal_rule="NEON401",
        unregistered_rule="NEON402",
        domain="trace",
        noun="event kind",
        verb="emitted",
    ),
    Registry(
        method="arm",
        receiver_suffix="faults",
        arg_index=0,
        keyword="point",
        module="repro.faults.registry",
        constant_names=fault_registry.constant_names(),
        register_call="register_injection_point",
        literal_rule="NEON403",
        unregistered_rule="NEON404",
        domain="fault",
        noun="injection point",
        verb="armed",
    ),
)

_BY_METHOD = {registry.method: registry for registry in REGISTRIES}


def registered_name_args(tree: ast.AST) -> Iterator[tuple[Registry, ast.expr]]:
    """``(registry, expression)`` for each name a call site registers.

    Both branches of a conditional argument are yielded; a starred or
    missing argument yields nothing.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        registry = _BY_METHOD.get(func.attr)
        if registry is None:
            continue
        # ``trace.emit`` → ``trace``; ``self.kernel.trace.emit`` → ``trace``.
        receiver = name_of(func.value)
        if receiver is None or not receiver.lstrip("_").endswith(
            registry.receiver_suffix
        ):
            continue
        yield from (
            (registry, leaf) for leaf in _branches(_argument(node, registry))
        )


def name_of(expr: ast.expr) -> Optional[str]:
    """The identifier an argument names: ``FAULT`` or ``events.FAULT``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _argument(call: ast.Call, registry: Registry) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == registry.keyword:
            return keyword.value
    if len(call.args) > registry.arg_index:
        arg = call.args[registry.arg_index]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def _branches(expr: Optional[ast.expr]) -> Iterator[ast.expr]:
    if isinstance(expr, ast.IfExp):
        yield from _branches(expr.body)
        yield from _branches(expr.orelse)
    elif expr is not None:
        yield expr


class RegisteredNameChecker:
    """NEON401/403 (literal names) and NEON402/404 (unregistered constants)."""

    rule_ids = tuple(
        rule
        for registry in REGISTRIES
        for rule in (registry.literal_rule, registry.unregistered_rule)
    )

    def check(self, ctx: ModuleContext, config: "Config") -> Iterator[Violation]:
        if not (ctx.module == SCOPE or ctx.module.startswith(SCOPE + ".")):
            return
        for registry, expr in registered_name_args(ctx.tree):
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                rule_id = registry.literal_rule
                message = (
                    f"string-literal {registry.noun} {expr.value!r}; use a "
                    f"registered constant from {registry.module} instead"
                )
            else:
                name = name_of(expr)
                if name is None or name in registry.constant_names:
                    continue
                rule_id = registry.unregistered_rule
                message = (
                    f"{registry.noun} constant '{name}' is not registered in "
                    f"{registry.module}; register it with "
                    f"{registry.register_call}"
                )
            yield Violation(
                path=str(ctx.path),
                line=expr.lineno,
                col=expr.col_offset,
                rule_id=rule_id,
                message=message,
            )
