"""The tier-1 gate: the repo's own sources must be neonlint-clean.

Every future PR — schedulers, workloads, experiments — is automatically
checked against the paper's observability constraint (Section 3) by this
test.  If it fails, either route the new device knowledge through
``InterceptionManager`` or, for an audited exception, add an inline
``# neonlint: allow[RULE] reason`` pragma and document it in
docs/STATIC_ANALYSIS.md.
"""

from pathlib import Path

from repro.staticcheck import Config, collect_files, run_analysis
from repro.staticcheck.cli import main as staticcheck_main
from repro.staticcheck.rules.wholeprogram import WHOLE_PROGRAM_CHECKS

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_repo_sources_are_violation_free():
    # Both layers: the per-file rules, and over the linked model no
    # undriven generator call, no laundered boundary taint, no escaped
    # RNG streams, observation clients on the declared API, no dead
    # registry entries, no unused imports.
    violations = run_analysis([SRC], Config()).violations
    assert violations == [], "\n".join(v.render() for v in violations)


def test_repo_passes_the_whole_program_rules():
    # The linked-model layer on its own: every scanned module is linked,
    # every whole-program rule ran over the model, and none of them
    # reports a finding — transitively, over the whole of src/.
    result = run_analysis([SRC], Config())
    assert result.stats.modules_linked == result.stats.files_checked
    assert set(result.stats.rule_wall_s) == set(WHOLE_PROGRAM_CHECKS)
    whole_program = [v for v in result.violations if v.rule_id in WHOLE_PROGRAM_CHECKS]
    assert whole_program == [], "\n".join(v.render() for v in whole_program)


def test_the_scan_actually_covers_the_tree():
    # Guard against the gate silently passing because nothing was scanned.
    files = collect_files([SRC])
    assert len(files) > 60
    assert any(f.name == "disengaged_fq.py" for f in files)


def test_cli_exits_zero_on_repo(capsys):
    assert staticcheck_main([str(SRC)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_audited_exceptions_are_minimal():
    # The allowlist is two pragma lines: the dfq-hw vendor-statistics
    # ablation (the one scheduler the paper allows to read usage).  Grow
    # this number only with a documented audit.
    pragma_lines = []
    for path in collect_files([SRC]):
        if "staticcheck" in path.parts:
            continue  # the analyzer's own docs mention the pragma syntax
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if "neonlint: allow[" in line:
                pragma_lines.append((path.name, lineno))
    assert len(pragma_lines) == 2
    assert all(name == "disengaged_fq.py" for name, _ in pragma_lines)
