"""Generator-discipline rules (NEON3xx) — no silently dropped time.

Methods that consume virtual time — :meth:`InterceptionManager.drain`,
:meth:`InterceptionManager.scan_channel`, and every scheduler-internal
``yield``-driven helper — are generators meant to be driven from a
scheduler process via ``yield from``.  Calling one and discarding the
result creates a generator object and throws it away: no time passes, no
drain happens, and nothing fails loudly.  This silent no-op bug class is
endemic to generator-driven discrete-event simulators.

* **NEON301** — a generator call appears as a bare expression statement:
  its result is discarded.
* **NEON302** — a generator call is ``yield``-ed (handing the simulator a
  generator object it cannot wait on) instead of ``yield from``-ed.
* **NEON303** — the flip count returned by a bulk engagement method
  (``engage_all``/``engage_task``/``disengage_task``) is discarded, so
  the page-flip cost of the barrier can never be charged to virtual time.

NEON301/302 need to know what a call reaches, so they run over the
project model (:mod:`repro.staticcheck.rules.wholeprogram`): a call whose
target resolves to a project function is a generator call when that
function's own scope contains ``yield``; a call the model cannot resolve
(``self.neon.drain()``) is one only when its last name is in
``Config.generator_methods``.  NEON303 is per-file and lives here.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.staticcheck.core import ModuleContext, Violation

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config


def _call_name(node: ast.Call) -> str | None:
    """The bare or attribute name a call targets (``self.neon.drain`` → ``drain``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class GeneratorChecker:
    """NEON303."""

    rule_ids = ("NEON303",)

    def check(self, ctx: ModuleContext, config: "Config") -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
                continue
            name = _call_name(node.value)
            if name in config.flip_methods:
                yield Violation(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="NEON303",
                    message=(
                        f"flip count returned by '{name}()' is discarded; "
                        "charge it via neon.flip_cost(flips) so the "
                        "barrier's page-table cost reaches virtual time"
                    ),
                )
