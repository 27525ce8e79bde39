"""The fleet policy layer is inside the neonlint boundary fence.

``repro.fleet.policies`` sits on the scheduler side of the interception
boundary: a global policy may consume only per-device digests distilled
from trace events.  These tests pin that the default config scopes the
boundary rules (NEON101/102) and the observation-API rule (NEON503)
over the fleet policy layer, using a fixture package with a seeded
``bad_fleet_policy`` that reaches into ``repro.gpu.device`` internals.
"""

from pathlib import Path

from repro.staticcheck import Config, run_analysis
from repro.staticcheck.core import module_name_for
from repro.staticcheck.graph import ProjectModel
from repro.staticcheck.rules.wholeprogram import check_observation_api

from tests.staticcheck.conftest import FIXTURES, rule_locations

FLEET_PKG = FIXTURES / "fleet_pkg"
POLICIES = FLEET_PKG / "repro" / "fleet" / "policies"


def test_fleet_policy_layer_is_boundary_scoped():
    config = Config()
    assert config.is_boundary_module("repro.fleet.policies")
    assert config.is_boundary_module("repro.fleet.policies.bad_fleet_policy")
    assert config.is_observation_client_module("repro.fleet.policies")
    # The rest of the fleet package (registry, migration, tenants) runs
    # the machinery, not policy decisions — it stays out of scope.
    assert not config.is_boundary_module("repro.fleet.registry")
    assert not config.is_boundary_module("repro.fleet.migration")
    # Prefix matching, not substring matching.
    assert not config.is_boundary_module("repro.fleet.policiesque")


def test_fixture_tree_resolves_to_fleet_policy_module_names():
    assert module_name_for(POLICIES / "bad_fleet_policy.py") == (
        "repro.fleet.policies.bad_fleet_policy"
    )


def test_bad_fleet_policy_flags_each_seeded_violation():
    violations = run_analysis([POLICIES / "bad_fleet_policy.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON101", 8),  # from repro.gpu import device
        ("NEON101", 9),  # import repro.gpu.device
        ("NEON505", 9),  # ...and never used
        ("NEON503", 21),  # self.neon.raw_channel_table (off the API)
        ("NEON102", 27),  # stack.device
        ("NEON102", 27),  # ...device.task_usage
        ("NEON102", 28),  # stack.device
        ("NEON102", 28),  # ...device.engines
    ]


def test_good_fleet_policy_is_clean():
    assert run_analysis([POLICIES / "good_fleet_policy.py"], Config()).violations == []


def test_neon503_covers_fleet_policies():
    model = ProjectModel.build(paths=[FLEET_PKG])
    violations = list(check_observation_api(model, Config()))
    assert [v.rule_id for v in violations] == ["NEON503"]
    assert ".raw_channel_table" in violations[0].message
    assert violations[0].path.endswith("bad_fleet_policy.py")
    # The allowlisted neon.* calls in the same class are not flagged.
    assert violations[0].line == 21


def test_real_fleet_policy_module_is_clean():
    import repro.fleet.policies as policies

    path = Path(policies.__file__)
    assert run_analysis([path], Config()).violations == []
