"""Boundary rules (NEON101/NEON102): positives, negatives, and pragmas."""

from repro.staticcheck import Config, run_analysis
from repro.staticcheck.core import module_name_for

from tests.staticcheck.conftest import rule_locations


def test_bad_boundary_fixture_flags_each_seeded_violation(boundary_pkg):
    violations = run_analysis([boundary_pkg / "bad_boundary.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON101", 3),  # from repro.gpu.request import RequestKind
        ("NEON101", 4),  # import repro.osmodel.kernel
        ("NEON102", 8),  # channel.queue
        ("NEON102", 9),  # channel.refcounter
        ("NEON102", 10),  # kernel.device
        ("NEON102", 10),  # ...device.main_engine
    ]
    assert all(str(boundary_pkg) in violation.path for violation in violations)


def test_pragma_grants_audited_exception(boundary_pkg):
    violations = run_analysis([boundary_pkg / "bad_boundary.py"], Config()).violations
    # Line 15 dereferences channel.refcounter but carries
    # ``# neonlint: allow[NEON102]`` — it must not be reported.
    assert all(violation.line != 15 for violation in violations)


def test_clean_boundary_module_passes(boundary_pkg):
    assert run_analysis([boundary_pkg / "good_boundary.py"], Config()).violations == []


def test_type_checking_imports_are_not_runtime_imports(boundary_pkg):
    # good_boundary.py imports repro.gpu.channel and repro.osmodel.task,
    # but only under TYPE_CHECKING; the checker must see the difference.
    source = (boundary_pkg / "good_boundary.py").read_text()
    assert "from repro.gpu.channel import" in source
    assert run_analysis([boundary_pkg / "good_boundary.py"], Config()).violations == []


def test_fixture_tree_resolves_to_core_module_names(boundary_pkg):
    assert module_name_for(boundary_pkg / "bad_boundary.py") == (
        "repro.core.bad_boundary"
    )


def test_rules_scoped_to_boundary_modules_only(boundary_pkg):
    # With the boundary scope pointed elsewhere, the same file is clean:
    # the rules bind to the architecture, not to file contents.
    config = Config(boundary_modules=("somewhere.else",))
    assert run_analysis([boundary_pkg / "bad_boundary.py"], config).violations == []


def test_repo_core_modules_are_in_scope():
    config = Config()
    assert config.is_boundary_module("repro.core.disengaged_fq")
    assert config.is_boundary_module("repro.core")
    assert not config.is_boundary_module("repro.neon.interception")
    assert not config.is_boundary_module("repro.corellia")  # prefix, not match
