"""Span-boundary kinds: ordinary event kinds to NEON401/402, all folded."""

import shutil

from repro.obs import events
from repro.obs.events import constant_names
from repro.obs.spans import TraceFold
from repro.staticcheck import Config, run_analysis

from tests.staticcheck.conftest import rule_locations


def spans_fixture(fixtures):
    return fixtures / "boundary_pkg" / "repro" / "bad_spans.py"


def test_bad_spans_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    assert rule_locations(violations) == [
        ("NEON401", 7),   # literal "barrier_begin"
        ("NEON402", 8),   # MY_PHASE_BEGIN unregistered everywhere
        ("NEON402", 9),   # kwarg form
        ("NEON402", 13),  # unregistered branch of the conditional kind
    ]


def test_pragma_grants_audited_exception(fixtures):
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    # Line 17 carries ``# neonlint: allow[NEON401]``.
    assert all(violation.line != 17 for violation in violations)


def test_registered_span_emits_pass(fixtures):
    # Lines 15-16 use registered constants.
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    assert all(violation.line not in (15, 16) for violation in violations)


def test_rule_scoped_to_configured_modules_only(fixtures, tmp_path):
    # The same source outside the repro package has no findings.
    outside = tmp_path / "bad_spans.py"
    shutil.copy(spans_fixture(fixtures), outside)
    assert run_analysis([outside], Config()).violations == []


def test_every_boundary_named_constant_is_paired():
    # Every *_BEGIN/*_END kind the registry declares is one the span
    # fold handles, so no boundary record is silently dropped.
    boundary = {
        getattr(events, name)
        for name in constant_names()
        if name.endswith(("_BEGIN", "_END"))
    }
    assert boundary
    assert boundary <= set(TraceFold()._handlers)
