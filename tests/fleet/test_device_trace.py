"""Per-device trace tagging and device-aware tenant grouping."""

from repro.experiments.runner import build_env, run_workloads
from repro.fleet.tenants import FleetTenant
from repro.obs.windows import split_tenant
from repro.sim.trace import (
    DeviceTraceView,
    TraceRecord,
    TraceRecorder,
    tenant_key,
)


def test_view_tags_every_emitted_record():
    base = TraceRecorder()
    view = DeviceTraceView(base, 3)
    view.emit(1.0, "gpu", "fault", task="t0")
    assert list(base.records())[-1].payload["device"] == 3


def test_view_preserves_an_explicit_device_field():
    base = TraceRecorder()
    view = DeviceTraceView(base, 3)
    view.emit(1.0, "fleet", "fleet.device_lost", device=7, tenants=[])
    assert list(base.records())[-1].payload["device"] == 7
    view.append(TraceRecord(2.0, "fleet", "fleet.place", {"device": 9}))
    assert list(base.records())[-1].payload["device"] == 9
    view.append(TraceRecord(3.0, "fleet", "fleet.place", {"task": "t"}))
    assert list(base.records())[-1].payload["device"] == 3


def test_view_delegates_everything_else():
    base = TraceRecorder()
    view = DeviceTraceView(base, 0)
    assert view.enabled is base.enabled
    assert view.base is base
    view.emit(1.0, "gpu", "fault", task="t0")
    assert len(view) == len(base) == 1
    assert list(view.records()) == list(base.records())


def test_tenant_keys_group_by_device_only_when_tagged():
    # Single-device payloads carry no device field: bare names, so all
    # pre-fleet window/summary output is unchanged.
    assert tenant_key({"task": "glxgears"}) == "glxgears"
    assert tenant_key({"task": "t0", "device": 2}) == "t0@d2"
    assert tenant_key({"device": 2}) is None  # no task, no key
    # split_tenant inverts the key, bare names included.
    assert split_tenant("glxgears") == ("glxgears", None)
    assert split_tenant("t0@d2") == ("t0", 2)
    assert split_tenant("p0.t000@d10") == ("p0.t000", 10)


def test_multi_device_trace_separates_tenants_per_device():
    trace = TraceRecorder()
    env = build_env(devices=2, scheduler="dfq", seed=0, trace=trace)
    tenants = [FleetTenant(f"t{i:03d}", request_size_us=800.0)
               for i in range(4)]
    run_workloads(env, tenants, 40_000.0, 5_000.0)
    keys = set()
    for record in trace.records():
        if "task" not in record.payload:
            continue
        key = tenant_key(record.payload)
        if key.startswith("t"):
            keys.add(key)
    devices = {key.rsplit("@", 1)[1] for key in keys}
    assert devices == {"d0", "d1"}
    assert all("@" in key for key in keys)
