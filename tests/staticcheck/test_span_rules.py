"""Span-pair rule (NEON406): positives, negatives, full-run parity."""

from textwrap import dedent

import pytest

from repro.obs.events import constant_names
from repro.obs.spans import span_constant_names, span_kinds
from repro.staticcheck import Config, run_analysis

from tests.staticcheck.conftest import rule_locations


def spans_fixture(fixtures):
    return fixtures / "boundary_pkg" / "repro" / "bad_spans.py"


def test_bad_spans_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    assert rule_locations(violations) == [
        ("NEON401", 7),   # literal "barrier_begin" (both rules fire)
        ("NEON406", 7),
        ("NEON402", 8),   # MY_PHASE_BEGIN unregistered everywhere
        ("NEON406", 8),
        ("NEON402", 9),   # kwarg form
        ("NEON406", 9),
        ("NEON402", 13),  # non-span branch of the conditional kind
        ("NEON406", 13),
    ]


def test_pragma_grants_audited_exception(fixtures):
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    # Line 18 carries ``# neonlint: allow[NEON401,NEON406]``.
    assert all(violation.line != 18 for violation in violations)


def test_registered_span_emits_pass(fixtures):
    # Lines 15-16 use registered pair constants / non-span kinds.
    violations = run_analysis([spans_fixture(fixtures)], Config()).violations
    assert all(violation.line not in (15, 16) for violation in violations)


def test_rule_scoped_to_configured_modules_only(fixtures):
    config = Config(trace_emit_modules=("somewhere.else",))
    assert run_analysis([spans_fixture(fixtures)], config).violations == []


def test_span_constants_are_a_subset_of_event_constants():
    # NEON406's advice (use the paired constant) is always satisfiable
    # through the same events-module spelling NEON402 points at.
    assert span_constant_names() <= constant_names()
    from repro.obs import events as events_module

    resolved = {getattr(events_module, name) for name in span_constant_names()}
    assert resolved == set(span_kinds())


def test_every_boundary_named_constant_is_paired():
    # The production registry itself satisfies the rule: no *_BEGIN/_END
    # constant exists outside a registered pair.
    boundary = {
        name for name in constant_names()
        if name.endswith(("_BEGIN", "_END"))
    }
    assert boundary <= span_constant_names()


# ----------------------------------------------------------------------
# Span-shaped literals through the full engine run
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["barrier_begin", "my.phase_begin"])
def test_span_literal_fires_both_literal_rules(tmp_path, kind):
    # A registered span kind and an unpaired one alike: the literal is
    # both a NEON401 literal kind and a NEON406 span-boundary literal.
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "emitter.py").write_text(dedent(f"""\
        def run(trace, now):
            trace.emit(now, "scheduler", "{kind}", task="t")
    """))
    result = run_analysis([tmp_path], Config())
    assert rule_locations(result.violations) == [
        ("NEON401", 2),
        ("NEON406", 2),
    ]
