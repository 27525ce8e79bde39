"""Injection-point rules (NEON403/NEON404): positives, negatives, scoping."""

import shutil

from repro.faults.registry import constant_names, registered_points
from repro.staticcheck import Config, run_analysis
from repro.staticcheck.core import module_name_for

from tests.staticcheck.conftest import rule_locations


def faults_pkg(fixtures):
    return fixtures / "boundary_pkg" / "repro"


def test_bad_faults_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([faults_pkg(fixtures) / "bad_faults.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON403", 7),   # literal "gpu.request_hang"
        ("NEON403", 8),   # literal point= kwarg
        ("NEON404", 9),   # MY_PRIVATE_POINT not registered
        ("NEON404", 10),  # fault_points.NOT_A_POINT not registered
        ("NEON403", 12),  # literal branch of the conditional point
        ("NEON403", 18),  # deep receiver self.device.faults.arm
        ("NEON403", 25),  # private receiver self._faults.arm
    ]


def test_pragma_grants_audited_exception(fixtures):
    violations = run_analysis([faults_pkg(fixtures) / "bad_faults.py"], Config()).violations
    # Line 14 uses a literal point under ``# neonlint: allow[NEON403]``.
    assert all(violation.line != 14 for violation in violations)


def test_clean_faults_module_passes(fixtures):
    assert run_analysis([faults_pkg(fixtures) / "good_faults.py"], Config()).violations == []


def test_fixture_resolves_to_in_scope_module_name(fixtures):
    module = module_name_for(faults_pkg(fixtures) / "bad_faults.py")
    assert module == "repro.bad_faults"


def test_rules_scoped_to_configured_modules_only(fixtures, tmp_path):
    # Modules outside the repro package (tests, chaos harness doubles)
    # arm freely: the same source as a loose module has no findings.
    outside = tmp_path / "bad_faults.py"
    shutil.copy(faults_pkg(fixtures) / "bad_faults.py", outside)
    assert module_name_for(outside) == "bad_faults"
    assert run_analysis([outside], Config()).violations == []


def test_registry_constants_cover_all_registered_points():
    # Every registered point is reachable through a module constant, so
    # NEON404's "use a registered constant" advice is always satisfiable.
    from repro.faults import registry as registry_module

    names = constant_names()
    values = {getattr(registry_module, name) for name in names}
    assert values == set(registered_points())
