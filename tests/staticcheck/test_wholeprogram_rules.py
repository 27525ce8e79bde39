"""NEON5xx whole-program rules over the wholeprog fixture project.

The centerpiece is the laundering acceptance test: a boundary module
that reaches device internals through a helper hop passes every per-file
NEON1xx rule but is caught by NEON501 with the full call chain attached.
"""

import inspect

import pytest

from repro.staticcheck import Config, run_analysis
from repro.staticcheck.graph import ProjectModel
from repro.staticcheck.rules.wholeprogram import (
    check_boundary_taint,
    check_dead_registry,
    check_observation_api,
    check_rng_flow,
    check_unused_imports,
)

from tests.staticcheck.conftest import WHOLEPROG_PKG

LAUNDERER = WHOLEPROG_PKG / "repro" / "core" / "launderer.py"


@pytest.fixture(scope="module")
def model():
    return ProjectModel.build(paths=[WHOLEPROG_PKG])


@pytest.fixture(scope="module")
def config():
    return Config()


# ----------------------------------------------------------------------
# NEON501 — the laundering acceptance criterion
# ----------------------------------------------------------------------
def test_per_file_rules_pass_on_the_launderer():
    # The boundary module never imports repro.gpu, so NEON101/102 are
    # blind to it — exactly the gap NEON501 exists to close.
    violations = run_analysis([LAUNDERER], Config()).violations
    assert violations == [], "\n".join(v.render() for v in violations)


def test_neon501_catches_the_two_hop_laundering(model, config):
    violations = list(check_boundary_taint(model, config))
    assert violations, "NEON501 found nothing in the laundering fixture"
    chains = [
        [hop[0] for hop in violation.chain]
        for violation in violations
        if violation.path == str(LAUNDERER)
    ]
    assert [
        "repro.core.launderer.decide",
        "repro.helpers.relay.probe",
        "repro.gpu.device.read_queue",
    ] in chains


def test_neon501_anchors_at_the_boundary_call_site(model, config):
    decide = next(
        violation
        for violation in check_boundary_taint(model, config)
        if "decide" in violation.message
    )
    assert violation_line_text(decide) == "return relay.probe()"
    assert "repro.gpu.device.read_queue" in decide.message
    rendered = decide.render()
    assert "call chain:" in rendered
    assert "relay.py" in rendered


def violation_line_text(violation):
    from pathlib import Path

    return Path(violation.path).read_text().splitlines()[violation.line - 1].strip()


def test_neon501_does_not_flag_sanctioned_or_innocent_paths(model, config):
    violations = list(check_boundary_taint(model, config))
    assert not any("innocent" in v.message for v in violations)
    assert not any("harmless" in hop[0] for v in violations for hop in v.chain)


# ----------------------------------------------------------------------
# NEON502 — RNG-stream dataflow
# ----------------------------------------------------------------------
def test_neon502_flags_escape_construction_and_flow(model, config):
    violations = list(check_rng_flow(model, config))
    by_file = {v.path.rsplit("/", 1)[-1] for v in violations}
    assert by_file == {"shared_rng.py", "mixer.py", "uses_rng.py"}
    flow = next(v for v in violations if v.path.endswith("uses_rng.py"))
    assert "STREAM" in flow.message
    assert len(flow.chain) == 2  # creation site -> importing module
    local = [v for v in violations if v.path.endswith("shared_rng.py")]
    # Only the module-scope stream is flagged; the function-local one
    # in a non-client module is legitimate.
    assert len(local) == 1
    assert "STREAM" in local[0].message


# ----------------------------------------------------------------------
# NEON503 — observation-API isolation
# ----------------------------------------------------------------------
def test_neon503_flags_only_off_api_attributes(model, config):
    violations = list(check_observation_api(model, config))
    assert [v.rule_id for v in violations] == ["NEON503"]
    assert ".device_secrets" in violations[0].message
    assert violations[0].path.endswith("policy.py")


def test_observation_api_matches_interception_manager_surface():
    # The declarative allowlist in staticcheck.config must track the real
    # InterceptionManager public API — both directions.
    from repro.neon.interception import InterceptionManager

    public = {
        name
        for name, member in inspect.getmembers(InterceptionManager)
        if not name.startswith("_")
        and (inspect.isfunction(member) or isinstance(member, property))
    }
    assert Config().observation_api == frozenset(public)


# ----------------------------------------------------------------------
# NEON504 — dead registry entries
# ----------------------------------------------------------------------
def test_neon504_flags_exactly_the_dead_entries(model, config):
    violations = list(check_dead_registry(model, config))
    names = sorted(v.message.split("'")[1] for v in violations)
    assert names == ["NEVER_ARMED", "NEVER_EMITTED"]


def test_neon504_skips_partial_scans(config):
    # Scanning a subtree without the registry modules must not invent
    # "dead" entries for constants it cannot see the emit sites of.
    partial = ProjectModel.build(paths=[WHOLEPROG_PKG / "repro" / "core"])
    assert list(check_dead_registry(partial, config)) == []


# ----------------------------------------------------------------------
# NEON505 — unused imports, re-export aware
# ----------------------------------------------------------------------
def test_neon505_reexport_awareness(model, config):
    violations = list(check_unused_imports(model, config))
    flagged = sorted(
        (v.path.rsplit("/", 1)[-1], v.message.split("'")[1]) for v in violations
    )
    # util/__init__: probe survives (imported via the package by
    # consumer.py), harmless survives (__all__); local_ok is dead.
    # consumer.py: json is dead.
    assert flagged == [("__init__.py", "local_ok"), ("consumer.py", "json")]
