"""Planned migration: the boundary-only guarantee, end to end."""

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.fleet.tenants import FleetTenant
from repro.sim.trace import TraceRecorder


def traced_fleet(devices=2, tenants=4, seed=0, moves=(), duration_us=120_000.0):
    trace = TraceRecorder()
    env = build_env(
        devices=devices, scheduler="dfq", seed=seed, trace=trace
    )
    workloads = [
        FleetTenant(f"t{i:03d}", request_size_us=800.0)
        for i in range(tenants)
    ]
    results = run_workloads(env, workloads, duration_us, 10_000.0, moves=moves)
    return env, trace, results


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_migrations_commit_only_at_engagement_boundaries(seed):
    # The property the protocol promises: every planned migration commits
    # inside an engagement episode of the *source* device — after its
    # barrier went up, before its next free-run period starts.  We replay
    # the trace, tracking episode state per device, and require every
    # fleet.migrate_begin to land while its source is mid-episode.
    moves = ((25_000.0, "t000", 1), (55_000.0, "t002", 0))
    env, trace, results = traced_fleet(seed=seed, moves=moves)
    in_episode = {}
    commits = 0
    for record in trace.records():
        device = record.payload.get("device")
        if record.kind == "barrier_begin":
            in_episode[device] = True
        elif record.kind == "freerun_start":
            in_episode[device] = False
        elif record.kind == "fleet.migrate_begin":
            assert record.payload["reason"] == "rebalance"
            src = record.payload["src"]
            assert in_episode.get(src), (
                f"migration of {record.payload['task']} committed outside "
                f"an engagement episode of device {src} at {record.time}"
            )
            commits += 1
    assert commits == len(env.migrations.records) > 0


def test_migration_records_and_tenant_rebinding():
    moves = ((30_000.0, "t000", 1),)
    env, trace, results = traced_fleet(moves=moves)
    records = env.migrations.records
    assert len(records) == 1
    record = records[0]
    assert record.task == "t000"
    assert (record.src, record.dst) == (0, 1)
    assert record.reason == "rebalance"
    assert record.cost_us == env.costs.migration_cost_us
    assert record.time_us >= 30_000.0  # never before the request

    moved = results["t000"]
    assert moved.metrics["fleet_device_initial"] == 0.0
    assert moved.metrics["fleet_device"] == 1.0
    assert moved.metrics["fleet_moves"] == 1.0
    assert moved.metrics["fleet_loss_moves"] == 0.0
    assert not moved.killed
    # The tenant kept doing useful work on the target device.
    assert moved.rounds.count > 0
    assert env.metrics.counter("fleet_migrations").value("t000") == 1.0


def test_migrated_tenant_usage_spans_both_devices():
    moves = ((30_000.0, "t000", 1),)
    env, trace, results = traced_fleet(moves=moves)
    history = env.tenant_tasks["t000"]
    assert [device for device, _task in history] == [0, 1]
    per_device = [
        env.stacks[device].device.task_usage(task)
        for device, task in history
    ]
    assert all(usage > 0 for usage in per_device)
    assert results["t000"].ground_truth_usage_us == pytest.approx(
        sum(per_device)
    )


def test_request_validation():
    env, trace, results = traced_fleet(duration_us=20_000.0)
    tenant = env.tenants[0]
    here = env.device_of(tenant)
    other = 1 - here
    with pytest.raises(ValueError, match="already on device"):
        env.migrations.request(tenant, here)
    with pytest.raises(ValueError, match="no such device"):
        env.migrations.request(tenant, 7)
    env.migrations.request(tenant, other)
    with pytest.raises(ValueError, match="pending move"):
        env.migrations.request(tenant, other)


def test_move_to_lost_device_is_rejected():
    env, trace, results = traced_fleet(duration_us=20_000.0)
    env.lose_device(1)
    survivor = next(t for t in env.tenants if env.device_of(t) == 0)
    with pytest.raises(ValueError, match="was lost"):
        env.migrations.request(survivor, 1)
