"""End-to-end fleet runs: fleet metrics at N>1, builder validation."""

import math

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.fleet.experiment import (
    format_fleet_table,
    summarize_fleet,
    tenant_specs,
)
from repro.fleet.tenants import FleetTenant


def test_multi_device_run_isolates_and_annotates():
    env = build_env("dfq", seed=1, devices=2)
    tenants = [
        FleetTenant(f"p{i % 2}.t{i:03d}", request_size_us=800.0)
        for i in range(4)
    ]
    results = run_workloads(env, tenants, 60_000.0, 10_000.0)
    assert len(results) == 4
    devices_seen = set()
    for result in results.values():
        assert not result.killed
        assert result.rounds.count > 0
        assert result.metrics["fleet_devices"] == 2.0
        assert result.metrics["fleet_moves"] == 0.0
        devices_seen.add(result.metrics["fleet_device"])
    assert devices_seen == {0.0, 1.0}  # least-loaded actually spread


def test_least_loaded_default_placement_balances_counts():
    env = build_env("dfq", seed=0, devices=3)
    tenants = [FleetTenant(f"t{i:03d}") for i in range(9)]
    results = run_workloads(env, tenants, 30_000.0, 5_000.0)
    population = {}
    for result in results.values():
        device = result.metrics["fleet_device"]
        population[device] = population.get(device, 0) + 1
    assert population == {0.0: 3, 1.0: 3, 2.0: 3}


def test_summary_and_table_roundtrip():
    env = build_env("dfq", seed=0, devices=2)
    tenants = [FleetTenant(f"t{i:03d}", request_size_us=600.0)
               for i in range(4)]
    results = run_workloads(env, tenants, 60_000.0, 10_000.0)
    summary = summarize_fleet(results)
    assert summary.devices == 2
    assert summary.tenants == 4
    assert summary.moves == 0
    assert summary.devices_lost == 0
    assert summary.killed == 0
    assert not math.isnan(summary.jain)
    assert summary.jain > 0.8  # uniform tenants on a fair scheduler

    table = format_fleet_table(results)
    assert "fleet Jain index" in table
    assert "devices lost: 0" in table
    for line in ("device", "tenants", "usage_ms"):
        assert line in table


def test_build_env_validation():
    with pytest.raises(ValueError, match="at least one device"):
        build_env("dfq", devices=0)
    with pytest.raises(KeyError, match="unknown placement"):
        build_env("dfq", devices=2, placement="nope")
    with pytest.raises(KeyError, match="unknown global policy"):
        build_env("dfq", devices=2, policy="nope")
    with pytest.raises(KeyError, match="unknown scheduler"):
        build_env("nope", devices=2)


def test_tenant_specs_shapes_and_validation():
    specs = tenant_specs(5, partitions=2)
    assert [spec.args[0] for spec in specs] == [
        "p0.t000", "p1.t001", "p0.t002", "p1.t003", "p0.t004"
    ]
    built = specs[0].build()
    assert isinstance(built, FleetTenant)
    with pytest.raises(ValueError):
        tenant_specs(0)
    with pytest.raises(ValueError):
        tenant_specs(2, partitions=0)
