"""Analysis engine — parse once, fan out per-file rules, link the model.

The engine is the one place that orchestrates a full neonlint run:

1. **Parse** every file into a :class:`ModuleContext` (parse failures
   become NEON000 findings and drop out of the model).
2. **Per-file rules** (NEON1xx–4xx) run over each context — with
   ``workers > 1``, file chunks fan out to a ``ProcessPoolExecutor``
   (the experiment-cell farm pattern: deterministic result order, any
   pool failure degrades to serial re-execution in the parent).
3. **Whole-program rules** (NEON5xx) run over one shared
   :class:`~repro.staticcheck.graph.ProjectModel` linked from the same
   contexts — never per file, so their transitive guarantees hold.

Suppression (the inline pragma) is applied centrally to both layers, so
``# neonlint: allow[NEON501] reason`` works exactly like it does for the
per-file families.

Timing uses :func:`repro.obs.clock.host_clock` — the audited host
wall-clock accessor — so neonlint stays clean under its own NEON201.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.clock import host_clock
from repro.staticcheck.core import (
    ModuleContext,
    PARSE_ERROR_RULE,
    Violation,
    analyze_file,
    collect_files,
    module_name_for,
)
from repro.staticcheck.graph import ProjectModel
from repro.staticcheck.rules.wholeprogram import WHOLE_PROGRAM_CHECKS

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Files per pool task; coarse chunks amortize process startup.
_CHUNK_SIZE = 16


@dataclasses.dataclass
class AnalysisStats:
    """What a run cost and what it found — the ``--stats`` payload."""

    files_checked: int = 0
    modules_linked: int = 0
    functions_linked: int = 0
    workers: int = 1
    pool_used: bool = False
    wall_s: float = 0.0
    parse_wall_s: float = 0.0
    per_file_wall_s: float = 0.0
    whole_program_wall_s: float = 0.0
    #: Whole-program rule id -> wall seconds.
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
            f"  workers {self.workers}"
            + (" (pool)" if self.pool_used else " (serial)"),
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
    model: Optional[ProjectModel] = None


def _analyze_chunk(paths: Sequence[str], config: "Config") -> list[Violation]:
    """Pool worker entry point: per-file rules over one chunk of files."""
    violations: list[Violation] = []
    for path in paths:
        violations.extend(analyze_file(Path(path), config))
    return violations


def _parse_contexts(
    files: Sequence[Path],
) -> tuple[list[ModuleContext], list[Violation]]:
    contexts: list[ModuleContext] = []
    failures: list[Violation] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(ModuleContext(path, module_name_for(path), source))
        except (OSError, SyntaxError, ValueError) as exc:
            failures.append(
                Violation(
                    path=str(path),
                    line=getattr(exc, "lineno", 0) or 0,
                    col=getattr(exc, "offset", 0) or 0,
                    rule_id=PARSE_ERROR_RULE,
                    message=f"file could not be analyzed: {exc}",
                )
            )
    return contexts, failures


def _run_per_file(
    files: Sequence[Path], config: "Config", workers: int, stats: AnalysisStats
) -> list[Violation]:
    """NEON1xx–4xx over every file; pool fan-out with serial fallback."""
    workers = max(1, int(workers))
    if workers > 1 and len(files) > 1:
        chunks = [
            [str(path) for path in files[start : start + _CHUNK_SIZE]]
            for start in range(0, len(files), _CHUNK_SIZE)
        ]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunk_results = list(pool.map(_analyze_chunk, chunks,
                                              [config] * len(chunks)))
            stats.pool_used = True
            return [violation for chunk in chunk_results for violation in chunk]
        except Exception:
            # Broken pool / no fork / pickling edge case: the per-file
            # rules are pure functions of the source, so serial re-run
            # in the parent produces identical results.
            stats.pool_used = False
    return [
        violation
        for path in files
        for violation in analyze_file(path, config)
    ]


def _run_whole_program(
    contexts: Sequence[ModuleContext],
    config: "Config",
    stats: AnalysisStats,
    rules: Optional[Sequence[str]] = None,
) -> tuple[list[Violation], ProjectModel]:
    model = ProjectModel.build(contexts=contexts)
    stats.modules_linked = len(model.modules)
    stats.functions_linked = len(model.functions)
    ctx_by_path = {str(ctx.path): ctx for ctx in contexts}
    violations: list[Violation] = []
    for rule_id, check in WHOLE_PROGRAM_CHECKS.items():
        if rules is not None and rule_id not in rules:
            continue
        started = host_clock()
        found = list(check(model, config))
        stats.rule_wall_s[rule_id] = host_clock() - started
        for violation in found:
            ctx = ctx_by_path.get(violation.path)
            if ctx is not None and ctx.pragma_allows(violation.line, violation.rule_id):
                stats.suppressed += 1
                continue
            violations.append(violation)
    return violations, model


def run_analysis(
    paths: Sequence[Path],
    config: "Config",
    workers: int = 1,
    whole_program: bool = True,
    rules: Optional[Sequence[str]] = None,
    restrict_to: Optional[Sequence[Path]] = None,
) -> AnalysisResult:
    """Run the full pipeline over ``paths``; see the module docstring.

    ``rules`` optionally restricts the whole-program layer to a subset of
    NEON5xx ids (the per-file families are cheap enough to always run).

    ``restrict_to`` (the ``--changed`` mode) narrows *reporting* to a
    file subset while the project model still links everything under
    ``paths`` — whole-program rules need the full graph to be sound, but
    a pre-commit hook only wants findings anchored in touched files.
    """
    stats = AnalysisStats(workers=max(1, int(workers)))
    run_started = host_clock()

    files = collect_files(paths)
    stats.files_checked = len(files)
    report_paths: Optional[set[str]] = None
    if restrict_to is not None:
        report_paths = {str(Path(p).resolve()) for p in restrict_to}
        per_file_targets = [
            path for path in files if str(path.resolve()) in report_paths
        ]
    else:
        per_file_targets = list(files)

    parse_started = host_clock()
    contexts, parse_failures = _parse_contexts(files)
    stats.parse_wall_s = host_clock() - parse_started

    per_file_started = host_clock()
    violations = _run_per_file(per_file_targets, config, workers, stats)
    stats.per_file_wall_s = host_clock() - per_file_started

    model: Optional[ProjectModel] = None
    if whole_program:
        whole_started = host_clock()
        whole_violations, model = _run_whole_program(contexts, config, stats, rules)
        stats.whole_program_wall_s = host_clock() - whole_started
        violations.extend(whole_violations)
    violations.extend(parse_failures)

    # NEON000 can arrive from both the parse pass and analyze_file; the
    # per-path dedup keeps one.
    unique = sorted(set(violations))
    if report_paths is not None:
        unique = [
            violation
            for violation in unique
            if str(Path(violation.path).resolve()) in report_paths
        ]
    stats.wall_s = host_clock() - run_started
    for violation in unique:
        stats.violations_by_rule[violation.rule_id] = (
            stats.violations_by_rule.get(violation.rule_id, 0) + 1
        )
    return AnalysisResult(violations=unique, stats=stats, model=model)


__all__ = ["AnalysisResult", "AnalysisStats", "run_analysis"]
