"""The one run path: golden digests, repeated runs, and builder contracts.

A single device is the fleet of one, so there is no second path to
compare against.  Instead, the digests below were recorded from the
separate single-device and fleet runners that preceded the merge, each in
a fresh interpreter, and pin the merged path to them.
"""

import hashlib
import io
import json

import pytest

from repro.core.disengaged_fq import DisengagedFairQueueing
from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import result_to_jsonable
from repro.experiments.runner import build_env
from repro.fleet import experiment  # noqa: F401  (registers "tenant")
from repro.obs.export import write_jsonl
from repro.obs.monitor import MonitorSession, monitoring
from repro.obs.spans import build_spans
from repro.obs.windows import WindowConfig
from repro.sim.trace import TraceRecorder

WORKLOADS = (
    WorkloadSpec.of("tenant", "p0.t000", request_size_us=800.0),
    WorkloadSpec.of(
        "tenant", "p0.t001", request_size_us=400.0, sleep_ratio=0.25
    ),
    WorkloadSpec.of(
        "tenant", "p1.t002", request_size_us=1200.0, jitter_sigma=0.2
    ),
)

#: sha256 of the canonical-JSON results of :func:`cell` on 1 and 2 devices.
GOLDEN_RESULTS = {
    1: "140b4f48093ea58aed0209ba49f23150c206588e6a4543b694f37c846f314b05",
    2: "fb0acb5306a42f4be387fa925baaf5ff99cc001f4efa980ab79f4f3d59543753",
}
#: Record count and sha256 of the exported JSONL trace of the 1-device
#: cell under a monitor (10 ms windows, no rules), and sha256 of its span
#: set.  The stream is JSONL version 2; the version-1 stream of the same
#: run held 294 records (an exec.begin per segment) and folded to the
#: same span set.
GOLDEN_TRACE = (
    221, "1004b4266b09db22c3aca98840ec4809c6c550b9352ba89d5198be8003fbda39"
)
GOLDEN_SPANS = (
    "46932add7a021dcbb6069c7007357d27c20eecd2ec4c05aea4cce939e1eec963"
)
#: Content key and label of the 1-device cell.
GOLDEN_KEY = "d5dc1c1a0720bfada8dce86777afbc24628bf75894decc42c359291392dd5c61"
GOLDEN_LABEL = "dfq:tenant-p0.t000+tenant-p0.t001+tenant-p1.t002"


def cell(**overrides) -> CellSpec:
    fields = dict(
        scheduler="dfq", workloads=WORKLOADS, duration_us=60_000.0,
        warmup_us=10_000.0, seed=3,
    )
    fields.update(overrides)
    return CellSpec(**fields)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def results_digest(results) -> str:
    return sha256(json.dumps(
        {name: result_to_jsonable(results[name]) for name in sorted(results)},
        sort_keys=True,
    ).encode("utf-8"))


def monitored_run(spec: CellSpec):
    """Run ``spec`` under a monitor; return (results, record stream)."""
    stream = TraceRecorder()
    session = MonitorSession(
        WindowConfig(window_us=10_000.0), (), record_stream=stream,
        line_sink=lambda line: None,
    )
    with monitoring(session):
        results = spec.run()
    return results, stream


def trace_text(stream: TraceRecorder) -> str:
    buffer = io.StringIO()
    write_jsonl(stream, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("devices", [1, 2])
def test_cell_results_match_golden_digest(devices):
    results = cell(devices=devices).run()
    assert results_digest(results) == GOLDEN_RESULTS[devices]


def test_single_device_results_carry_no_fleet_metrics():
    results = cell().run()
    assert not any(
        key.startswith("fleet_")
        for result in results.values()
        for key in result.metrics
    )


def test_single_device_trace_matches_golden_digest():
    _, stream = monitored_run(cell())
    assert len(stream) == GOLDEN_TRACE[0]
    assert sha256(trace_text(stream).encode("utf-8")) == GOLDEN_TRACE[1]
    spans = json.dumps(build_spans(stream).to_dict(), sort_keys=True)
    assert sha256(spans.encode("utf-8")) == GOLDEN_SPANS
    assert not any("device" in record.payload for record in stream.records())


def test_single_device_content_key_matches_golden():
    assert cell().content_key() == GOLDEN_KEY
    assert cell().label() == GOLDEN_LABEL
    # Fleet fields are keyed only when they can matter.
    assert cell(placement="hash-shard", policy="server").content_key() == (
        GOLDEN_KEY
    )
    assert cell(devices=2).content_key() != GOLDEN_KEY
    assert cell(moves=((20_000.0, "p0.t000", 0),)).content_key() != GOLDEN_KEY


def test_repeated_runs_in_one_process_agree():
    # Entity ids belong to each run's simulator, so running the same cell
    # again — even after an unrelated cell — reproduces every record.
    first_results, first = monitored_run(cell())
    again_results, again = monitored_run(cell())
    CellSpec(
        "direct", (WorkloadSpec.app("glxgears"),), 20_000.0, 5_000.0
    ).run()
    last_results, last = monitored_run(cell())
    assert len(first) > 0
    assert list(first.records()) == list(again.records())
    assert list(first.records()) == list(last.records())
    assert first_results == again_results == last_results


def test_runs_of_one_monitor_session_share_a_numbering():
    # A session records all its runs into one stream; span reconstruction
    # over that stream needs every channel id in it to be distinct.
    stream = TraceRecorder()
    session = MonitorSession(
        WindowConfig(window_us=10_000.0), (), record_stream=stream,
        line_sink=lambda line: None,
    )
    with monitoring(session):
        cell().run()
        cell().run()
    assert len(session.monitors) == 2
    channels = {
        record.payload["channel"] for record in stream.records()
        if "channel" in record.payload
    }
    assert channels == set(range(1, 2 * len(WORKLOADS) + 1))


def test_scheduler_instance_needs_a_single_device():
    env = build_env(DisengagedFairQueueing())
    assert isinstance(env.scheduler, DisengagedFairQueueing)
    with pytest.raises(ValueError, match="single device"):
        build_env(DisengagedFairQueueing(), devices=2)


def test_single_stack_accessors_refuse_a_fleet():
    env = build_env("dfq", devices=2)
    assert len(env.stacks) == 2
    for name in ("device", "kernel", "scheduler"):
        with pytest.raises(AttributeError, match="2 devices"):
            getattr(env, name)
