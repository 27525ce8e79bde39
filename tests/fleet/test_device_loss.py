"""Chaos: device loss, migration-based recovery, and escalation."""

from repro.fleet.experiment import (
    check_fleet_invariants,
    device_loss_plan,
    summarize_fleet,
)
from repro.experiments.runner import build_env, run_workloads
from repro.fleet.tenants import FleetTenant
from repro.sim.trace import TraceRecorder


def lossy_fleet(devices=3, tenants=6, lose=0, at_us=30_000.0,
                duration_us=100_000.0, trace=None):
    env = build_env(
        devices=devices, scheduler="dfq", seed=0, trace=trace,
        fault_plan=device_loss_plan(lose, at_us),
    )
    workloads = [
        FleetTenant(f"t{i:03d}", request_size_us=800.0)
        for i in range(tenants)
    ]
    results = run_workloads(env, workloads, duration_us, 10_000.0)
    return env, results


def test_lost_device_tenants_reincarnate_on_survivors():
    env, results = lossy_fleet()
    assert env.lost_devices == [0]
    assert env.metrics.counter("fleet_device_losses").total == 1.0
    summary = summarize_fleet(results)
    assert summary.devices_lost == 1
    assert summary.loss_moves == 2  # both device-0 residents moved
    assert summary.killed == 0
    victims = [
        result for result in results.values()
        if result.metrics["fleet_device_initial"] == 0.0
    ]
    assert len(victims) == 2
    for victim in victims:
        assert victim.metrics["fleet_device"] in (1.0, 2.0)
        assert victim.metrics["fleet_loss_moves"] == 1.0
        assert not victim.killed
        assert victim.rounds.count > 0  # kept working after recovery
    for record in env.migrations.records:
        assert record.reason == "device_loss"
        assert record.src == 0
    assert check_fleet_invariants(results) == []


def test_total_fleet_loss_escalates_cleanly():
    # No survivor: the protective kill stands, and the invariant checker
    # recognizes escalation as legal.
    env, results = lossy_fleet(devices=1, tenants=2, lose=0)
    assert env.lost_devices == [0]
    for result in results.values():
        assert result.killed
        assert result.kill_reason == "device lost"
        assert result.metrics["fleet_devices_lost"] == 1.0
    assert env.migrations.records == []
    assert check_fleet_invariants(results) == []


def test_bystanders_are_untouched():
    env, results = lossy_fleet()
    bystanders = [
        result for result in results.values()
        if result.metrics["fleet_device_initial"] != 0.0
    ]
    assert len(bystanders) == 4
    for bystander in bystanders:
        assert not bystander.killed
        assert bystander.metrics["fleet_moves"] == 0.0
        assert bystander.rounds.count > 0


def test_device_lost_event_is_traced():
    trace = TraceRecorder()
    env, results = lossy_fleet(trace=trace)
    lost = [r for r in trace.records() if r.kind == "fleet.device_lost"]
    assert len(lost) == 1
    assert lost[0].payload["device"] == 0
    assert sorted(lost[0].payload["tenants"]) == sorted(
        name for name, result in results.items()
        if result.metrics["fleet_device_initial"] == 0.0
    )
    # Recovery migrations are tagged with the device_loss reason.
    ends = [r for r in trace.records() if r.kind == "fleet.migrate_end"]
    assert ends and all(
        r.payload["reason"] == "device_loss" for r in ends
    )


def test_invariant_checker_flags_jain_floor_breaches():
    env, results = lossy_fleet()
    assert check_fleet_invariants(results, jain_floor=0.0) == []
    violations = check_fleet_invariants(results, jain_floor=1.01)
    assert len(violations) == 1
    assert "below floor" in violations[0]
