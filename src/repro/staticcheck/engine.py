"""Analysis engine — one serial pass over one parse per file.

The engine is the one place that orchestrates a full neonlint run:

1. **Parse** every file once into a :class:`ModuleContext` (parse
   failures become NEON000 findings and drop out of the model).
2. **Per-file rules** (NEON1xx–4xx, except NEON301/302) run over those
   contexts, with the checkers built once for the run.
3. **Model-based rules** (NEON301/302, NEON5xx) run over one shared
   :class:`~repro.staticcheck.graph.ProjectModel` linked from the same
   contexts — never per file, so calls resolve across modules.  Files
   from several source roots that share a dotted module name get one
   model per root (:func:`~repro.staticcheck.graph.split_projects`), so
   none of them is shadowed.

Suppression (the inline pragma) is applied centrally to both layers, so
``# neonlint: allow[NEON501] reason`` works exactly like it does for the
per-file families.

Timing uses :func:`repro.obs.clock.host_clock` — the audited host
wall-clock accessor — so neonlint stays clean under its own NEON201.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.clock import host_clock
from repro.staticcheck.core import (
    ModuleContext,
    Violation,
    check_module,
    collect_files,
    parse_module,
)
from repro.staticcheck.graph import ProjectModel, split_projects
from repro.staticcheck.rules import build_checkers
from repro.staticcheck.rules.wholeprogram import WHOLE_PROGRAM_CHECKS

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config


@dataclasses.dataclass
class AnalysisStats:
    """What a run cost and what it found — the ``--stats`` payload."""

    files_checked: int = 0
    modules_linked: int = 0
    functions_linked: int = 0
    wall_s: float = 0.0
    parse_wall_s: float = 0.0
    per_file_wall_s: float = 0.0
    whole_program_wall_s: float = 0.0
    #: Model-based rule id (NEON301/302, NEON5xx) -> wall seconds.
    rule_wall_s: dict[str, float] = dataclasses.field(default_factory=dict)
    violations_by_rule: dict[str, int] = dataclasses.field(default_factory=dict)
    suppressed: int = 0

    def render(self) -> str:
        lines = [
            f"neonlint stats: {self.files_checked} file(s), "
            f"{self.modules_linked} module(s), "
            f"{self.functions_linked} call-graph node(s)",
            f"  wall {self.wall_s:.3f}s  (parse {self.parse_wall_s:.3f}s, "
            f"per-file {self.per_file_wall_s:.3f}s, "
            f"whole-program {self.whole_program_wall_s:.3f}s)",
        ]
        for rule_id in sorted(self.rule_wall_s):
            lines.append(
                f"  {rule_id}: {self.rule_wall_s[rule_id] * 1000:7.1f} ms"
                f"  -> {self.violations_by_rule.get(rule_id, 0)} finding(s)"
            )
        if self.suppressed:
            lines.append(f"  {self.suppressed} finding(s) suppressed by pragma")
        return "\n".join(lines)


@dataclasses.dataclass
class AnalysisResult:
    """Violations plus the stats of the run that produced them."""

    violations: list[Violation]
    stats: AnalysisStats


def _run_whole_program(
    contexts: Sequence[ModuleContext], config: "Config", stats: AnalysisStats
) -> list[Violation]:
    ctx_by_path = {str(ctx.path): ctx for ctx in contexts}
    violations: list[Violation] = []
    for linked, own in split_projects(contexts):
        model = ProjectModel.build(contexts=linked)
        own_modules = {ctx.module for ctx in linked if str(ctx.path) in own}
        stats.modules_linked += len(own_modules)
        stats.functions_linked += sum(
            function.module in own_modules
            for function in model.functions.values()
        )
        for rule_id, check in WHOLE_PROGRAM_CHECKS.items():
            started = host_clock()
            found = [v for v in check(model, config) if v.path in own]
            stats.rule_wall_s[rule_id] = (
                stats.rule_wall_s.get(rule_id, 0.0) + host_clock() - started
            )
            for violation in found:
                ctx = ctx_by_path[violation.path]
                if ctx.pragma_allows(violation.line, violation.rule_id):
                    stats.suppressed += 1
                    continue
                violations.append(violation)
    return violations


def run_analysis(
    paths: Sequence[Path],
    config: "Config",
    restrict_to: Optional[Sequence[Path]] = None,
) -> AnalysisResult:
    """Run the full pipeline over ``paths``; see the module docstring.

    ``restrict_to`` (the ``--changed`` mode) narrows *reporting* to a
    file subset while the project model still links everything under
    ``paths`` — whole-program rules need the full graph to be sound, but
    a pre-commit hook only wants findings anchored in touched files.
    """
    stats = AnalysisStats()
    run_started = host_clock()

    files = collect_files(paths)
    stats.files_checked = len(files)
    report_paths: Optional[set[str]] = None
    if restrict_to is not None:
        report_paths = {str(Path(p).resolve()) for p in restrict_to}

    def reported(path: str | Path) -> bool:
        return report_paths is None or str(Path(path).resolve()) in report_paths

    parse_started = host_clock()
    parsed = [parse_module(path) for path in files]
    contexts = [item for item in parsed if isinstance(item, ModuleContext)]
    violations = [item for item in parsed if isinstance(item, Violation)]
    stats.parse_wall_s = host_clock() - parse_started

    per_file_started = host_clock()
    checkers = build_checkers(config)
    for ctx in contexts:
        if reported(ctx.path):
            violations.extend(check_module(ctx, config, checkers))
    stats.per_file_wall_s = host_clock() - per_file_started

    whole_started = host_clock()
    violations.extend(_run_whole_program(contexts, config, stats))
    stats.whole_program_wall_s = host_clock() - whole_started

    violations = sorted(
        violation for violation in violations if reported(violation.path)
    )
    stats.wall_s = host_clock() - run_started
    for violation in violations:
        stats.violations_by_rule[violation.rule_id] = (
            stats.violations_by_rule.get(violation.rule_id, 0) + 1
        )
    return AnalysisResult(violations=violations, stats=stats)


__all__ = ["AnalysisResult", "AnalysisStats", "run_analysis"]
