"""Trace-event rules (NEON401/NEON402): positives, negatives, scoping."""

import shutil

from repro.obs.events import constant_names, registered_kinds
from repro.staticcheck import Config, run_analysis
from repro.staticcheck.core import module_name_for

from tests.staticcheck.conftest import rule_locations

EVENTS_PKG_FILE = "bad_events.py"


def events_pkg(fixtures):
    return fixtures / "boundary_pkg" / "repro"


def test_bad_events_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([events_pkg(fixtures) / "bad_events.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON401", 7),   # literal "fault"
        ("NEON401", 8),   # literal kind= kwarg
        ("NEON402", 9),   # MY_PRIVATE_KIND not registered
        ("NEON402", 10),  # events.NOT_A_KIND not registered
        ("NEON401", 14),  # literal branch of the conditional kind
        ("NEON401", 20),  # deep receiver self.kernel.trace.emit
        ("NEON401", 27),  # private receiver self._trace.emit
        ("NEON402", 28),  # named receiver src_trace.emit
    ]


def test_pragma_grants_audited_exception(fixtures):
    violations = run_analysis([events_pkg(fixtures) / "bad_events.py"], Config()).violations
    # Line 17 uses a literal kind under ``# neonlint: allow[NEON401]``.
    assert all(violation.line != 17 for violation in violations)


def test_clean_events_module_passes(fixtures):
    assert run_analysis([events_pkg(fixtures) / "good_events.py"], Config()).violations == []


def test_fixture_resolves_to_in_scope_module_name(fixtures):
    module = module_name_for(events_pkg(fixtures) / "bad_events.py")
    assert module == "repro.bad_events"


def test_rules_scoped_to_configured_modules_only(fixtures, tmp_path):
    # Modules outside the repro package (tests, scratch recorders) emit
    # freely: the same source as a loose module has no findings.
    outside = tmp_path / "bad_events.py"
    shutil.copy(events_pkg(fixtures) / "bad_events.py", outside)
    assert module_name_for(outside) == "bad_events"
    assert run_analysis([outside], Config()).violations == []


def test_registry_constants_cover_all_registered_kinds():
    # Every registered kind is reachable through a module constant, so
    # NEON402's "use a registered constant" advice is always satisfiable.
    from repro.obs import events as events_module

    names = constant_names()
    values = {getattr(events_module, name) for name in names}
    assert values == set(registered_kinds())


# ----------------------------------------------------------------------
# Monitor-style emits (the slo.* / window.* observability kinds)
# ----------------------------------------------------------------------

def test_bad_monitor_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis(
        [events_pkg(fixtures) / "bad_monitor.py"], Config()
    ).violations
    assert rule_locations(violations) == [
        ("NEON401", 14),  # literal "window.close"
        ("NEON402", 15),  # SLO_BREACHED look-alike not registered
        ("NEON402", 17),  # kind routed through a local variable
    ]


def test_registered_conditional_monitor_emit_passes(fixtures):
    # good_transition (the events.SLO_VIOLATION-if-else idiom used by the
    # real monitor) must be clean: all flagged lines sit in window_closed.
    violations = run_analysis(
        [events_pkg(fixtures) / "bad_monitor.py"], Config()
    ).violations
    assert all(violation.line < 19 for violation in violations)


def test_monitor_kinds_are_registered():
    from repro.obs import events as events_module

    kinds = set(registered_kinds())
    for name in ("WINDOW_CLOSE", "SLO_VIOLATION", "SLO_RECOVERED"):
        assert getattr(events_module, name) in kinds
