"""Tests for picklable cell/workload specs."""

import pickle

import pytest

from repro.experiments.cells import (
    CellSpec,
    WorkloadSpec,
    register_workload_kind,
)
from repro.experiments.runner import build_env, run_workloads
from repro.workloads.apps import ProfiledApp
from repro.workloads.throttle import Throttle


def test_app_spec_builds_profiled_app():
    workload = WorkloadSpec.app("DCT").build()
    assert isinstance(workload, ProfiledApp)
    assert workload.name == "DCT"


def test_app_spec_instance_override():
    workload = WorkloadSpec.app("DCT", instance="dct-2").build()
    assert workload.name == "dct-2"


def test_throttle_spec_builds_throttle():
    workload = WorkloadSpec.throttle(19.0, sleep_ratio=0.4).build()
    assert isinstance(workload, Throttle)
    assert workload.request_size_us == 19.0
    assert workload.sleep_ratio == 0.4


def test_unknown_kind_rejected():
    with pytest.raises(KeyError, match="unknown workload kind"):
        WorkloadSpec.of("no-such-kind").build()


def test_register_workload_kind_roundtrip():
    register_workload_kind("tiny-throttle", lambda: Throttle(5.0))
    workload = WorkloadSpec.of("tiny-throttle").build()
    assert isinstance(workload, Throttle)


def test_cell_spec_pickles():
    cell = CellSpec(
        scheduler="dfq",
        workloads=(WorkloadSpec.app("DCT"), WorkloadSpec.throttle(19.0)),
        duration_us=10_000.0,
        warmup_us=1_000.0,
        seed=3,
    )
    clone = pickle.loads(pickle.dumps(cell))
    assert clone == cell
    assert clone.content_key() == cell.content_key()


def test_content_key_separates_configurations():
    base = CellSpec("direct", (WorkloadSpec.throttle(19.0),), 10_000.0, 0.0)
    keys = {
        base.content_key(),
        CellSpec("dfq", base.workloads, 10_000.0, 0.0).content_key(),
        CellSpec("direct", base.workloads, 20_000.0, 0.0).content_key(),
        CellSpec("direct", base.workloads, 10_000.0, 0.0, seed=1).content_key(),
        CellSpec(
            "direct", (WorkloadSpec.throttle(20.0),), 10_000.0, 0.0
        ).content_key(),
    }
    assert len(keys) == 5


def test_content_key_ignores_kwarg_order():
    a = WorkloadSpec.throttle(19.0, sleep_ratio=0.2, name="t")
    b = WorkloadSpec.throttle(19.0, name="t", sleep_ratio=0.2)
    assert a == b
    cell_a = CellSpec("direct", (a,), 1_000.0, 0.0)
    cell_b = CellSpec("direct", (b,), 1_000.0, 0.0)
    assert cell_a.content_key() == cell_b.content_key()


def test_cell_run_matches_hand_wired_run():
    cell = CellSpec(
        scheduler="direct",
        workloads=(WorkloadSpec.throttle(50.0, name="a"),),
        duration_us=20_000.0,
        warmup_us=2_000.0,
    )
    env = build_env("direct")
    direct = run_workloads(
        env, [Throttle(50.0, name="a")], duration_us=20_000.0,
        warmup_us=2_000.0,
    )
    assert cell.run() == direct
