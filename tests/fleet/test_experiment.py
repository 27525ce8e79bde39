"""Fleet cells: content keys, labels, farm compatibility."""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.faults.registry import FLEET_DEVICE_LOSS
from repro.fleet.experiment import (
    device_loss_plan,
    summarize_fleet,
    tenant_specs,
)


def spec(**overrides):
    base = dict(
        devices=2,
        scheduler="dfq",
        workloads=tenant_specs(4),
        duration_us=40_000.0,
        warmup_us=5_000.0,
    )
    base.update(overrides)
    return CellSpec(**base)


def test_content_key_is_stable_across_instances():
    assert spec().content_key() == spec().content_key()


@pytest.mark.parametrize("field, value", [
    ("devices", 3),
    ("scheduler", "timeslice"),
    ("placement", "hash-shard"),
    ("policy", "server"),
    ("seed", 1),
    ("duration_us", 50_000.0),
    ("workloads", tenant_specs(5)),
    ("fault_plan", device_loss_plan(0, 20_000.0)),
    ("moves", ((10_000.0, "p0.t000", 1),)),
])
def test_content_key_tracks_every_field(field, value):
    assert spec(**{field: value}).content_key() != spec().content_key()


def test_label_shape():
    assert spec().label() == "fleet2:dfq:4ten:least-loaded:fleet-fair:s0"
    lossy = spec(fault_plan=device_loss_plan(1, 10_000.0))
    assert lossy.label().endswith("+lose-d1")


def test_device_loss_plan_targets_the_device():
    plan = device_loss_plan(2, 30_000.0)
    assert plan.points() == (FLEET_DEVICE_LOSS,)
    (fault,) = plan.specs
    assert fault.target_task == "device2"
    assert fault.start_us == 30_000.0
    assert fault.count == 1


def test_specs_run_on_the_farm():
    cell = spec()
    (results,) = run_cells([cell], workers=1)
    assert sorted(results) == [w.args[0] for w in cell.workloads]
    summary = summarize_fleet(results)
    assert summary.devices == 2
    assert summary.tenants == 4
