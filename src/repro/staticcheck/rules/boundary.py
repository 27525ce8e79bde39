"""Boundary rules (NEON1xx) — the disengagement boundary.

Schedulers may act only on information observable through the
interception interface (paper Section 3: faults, reference counters,
ring-buffer scans).  Concretely, modules under ``repro.core``:

* **NEON101** — may not import ``repro.gpu`` or ``repro.osmodel``
  internals at runtime.  Imports inside ``if TYPE_CHECKING:`` blocks are
  fine: annotations are free, ground truth is not.
* **NEON102** — may not dereference ground-truth channel/device
  attributes (``channel.queue``, ``channel.refcounter``,
  ``kernel.device`` …).  Observation goes through ``self.neon`` — the
  :class:`~repro.neon.interception.InterceptionManager` — which charges
  the paper's costs for every read that is not free in the prototype.

Audited exceptions (the ``dfq-hw`` vendor-statistics ablation) carry
inline ``# neonlint: allow[NEON102]`` pragmas.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.staticcheck.core import ModuleContext, Violation
from repro.staticcheck.graph import is_type_checking_test

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config


class BoundaryChecker:
    """NEON101 (runtime imports) and NEON102 (ground-truth attributes)."""

    rule_ids = ("NEON101", "NEON102")

    def check(self, ctx: ModuleContext, config: "Config") -> Iterator[Violation]:
        if not config.is_boundary_module(ctx.module):
            return
        yield from self._walk(ctx, config, ctx.tree)

    def _walk(
        self, ctx: ModuleContext, config: "Config", node: ast.AST
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and is_type_checking_test(child.test):
                # The body is annotation-only by construction; the else
                # branch (if any) is runtime code.
                for stmt in child.orelse:
                    yield from self._walk(ctx, config, stmt)
                    yield from self._check_node(ctx, config, stmt)
                continue
            yield from self._check_node(ctx, config, child)
            yield from self._walk(ctx, config, child)

    def _check_node(
        self, ctx: ModuleContext, config: "Config", node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if config.is_internal_import(alias.name):
                    yield self._import_violation(ctx, node, alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and config.is_internal_import(module):
                yield self._import_violation(ctx, node, module)
        elif isinstance(node, ast.Attribute):
            if node.attr in config.ground_truth_attributes:
                yield Violation(
                    path=str(ctx.path),
                    line=node.lineno,
                    col=node.col_offset,
                    rule_id="NEON102",
                    message=(
                        f"ground-truth attribute '.{node.attr}' dereferenced past "
                        "the interception layer; observe through "
                        "self.neon/InterceptionManager instead"
                    ),
                )

    def _import_violation(
        self, ctx: ModuleContext, node: ast.stmt, module: str
    ) -> Violation:
        return Violation(
            path=str(ctx.path),
            line=node.lineno,
            col=node.col_offset,
            rule_id="NEON101",
            message=(
                f"runtime import of '{module}' crosses the disengagement "
                "boundary; move it under TYPE_CHECKING or re-export an "
                "observation-level equivalent from repro.neon"
            ),
        )
