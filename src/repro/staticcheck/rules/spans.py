"""Span-pair rule (NEON406) — paired begin/end trace kinds.

The causal span layer (:mod:`repro.obs.spans`) reconstructs lifecycle
spans purely from the trace stream, so every span-boundary emit must use
a kind the span-pair registry knows: an unregistered ``*_BEGIN`` opens a
span nothing ever closes, and a literal ``"foo.begin"`` drifts out from
under the builder exactly like NEON401 literals drift out of the event
registry.

* **NEON406** — ``trace.emit(...)`` names a span-boundary kind — a
  string literal shaped like one (``"...begin"``/``"...end"``) or a
  constant named ``*_BEGIN``/``*_END`` — that is not part of a pairing
  registered with :func:`repro.obs.spans.register_span_pair`.

Receiver/argument discovery is shared with the NEON401/402 checker:
only receivers named ``trace``, only modules under
``trace_emit_modules``, and conditional kinds are checked on both
branches.  A span-shaped literal is also a NEON401 literal kind, so
both rules fire on it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from repro.obs.spans import span_constant_names
from repro.staticcheck.core import ModuleContext, Violation
from repro.staticcheck.rules.events import (
    _kind_argument,
    _receiver_name,
    _RECEIVER,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Literal values with these suffixes are span-shaped ("barrier.begin",
#: "sched.wait_end", ...).
_VALUE_SUFFIXES = (".begin", ".end", "_begin", "_end")
#: Constant names with these suffixes claim to bound a span.
_NAME_SUFFIXES = ("_BEGIN", "_END")


class SpanPairChecker:
    """NEON406: span-boundary kinds must come from the span registry."""

    rule_ids = ("NEON406",)

    def __init__(self) -> None:
        self._registered = span_constant_names()

    def check(self, ctx: ModuleContext, config: "Config") -> Iterator[Violation]:
        if not config.is_trace_emit_module(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _receiver_name(node.func) != _RECEIVER:
                continue
            kind = _kind_argument(node)
            if kind is None:
                continue
            yield from self._check_kind(ctx, kind)

    def _check_kind(
        self, ctx: ModuleContext, kind: ast.expr
    ) -> Iterator[Violation]:
        if isinstance(kind, ast.IfExp):
            yield from self._check_kind(ctx, kind.body)
            yield from self._check_kind(ctx, kind.orelse)
            return
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            if kind.value.endswith(_VALUE_SUFFIXES):
                yield Violation(
                    path=str(ctx.path),
                    line=kind.lineno,
                    col=kind.col_offset,
                    rule_id="NEON406",
                    message=(
                        f"string-literal span-boundary kind {kind.value!r}; "
                        "use the paired constant registered with "
                        "repro.obs.spans.register_span_pair"
                    ),
                )
            return
        name: Optional[str] = None
        if isinstance(kind, ast.Name):
            name = kind.id
        elif isinstance(kind, ast.Attribute):
            name = kind.attr
        if (
            name is not None
            and name.endswith(_NAME_SUFFIXES)
            and name not in self._registered
        ):
            yield Violation(
                path=str(ctx.path),
                line=kind.lineno,
                col=kind.col_offset,
                rule_id="NEON406",
                message=(
                    f"span-boundary constant '{name}' is not part of a "
                    "registered span pair; register it with "
                    "repro.obs.spans.register_span_pair"
                ),
            )
