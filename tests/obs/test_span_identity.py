"""Span identity: the fold's output, hashed, on fixed runs.

The closure properties (``tests/properties/test_span_properties.py``)
hold for any well-formed span set, so they pass even when every span
changes.  These digests pin the exact ``SpanSet.to_dict()`` of each
chaos cell and of a fleet run with a planned migration, and the exact
``repro why`` text on a trace whose counter writes stall, so a change to
what the device emits or how the fold reads it cannot move a span
unnoticed.

The engine gives an execution segment its own ``exec.begin`` only where
no completion can stand in for it; the rest carry ``begin_us`` on their
``request_complete``.  The equivalence tests run each scenario a second
time with every segment announced (the version-1 stream) and require
the same span set.
"""

import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.chaos import builtin_plans
from repro.experiments.runner import build_env, run_workloads
from repro.faults import registry as fault_points
from repro.faults.injector import Injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.experiment import device_loss_plan
from repro.fleet.tenants import FleetTenant
from repro.gpu.device import GpuDevice
from repro.gpu.engine import ExecutionEngine
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.obs import events
from repro.obs.cli import record_trace
from repro.obs.export import JSONL_FORMAT, load_trace, read_jsonl
from repro.obs.spans import build_spans, fold_trace
from repro.osmodel.costs import CostParams
from repro.osmodel.task import Task
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads.adversarial import InfiniteKernel
from repro.workloads.apps import make_app
from repro.workloads.throttle import Throttle

from tests.obs.test_spans import fleet_spans
from tests.properties.test_span_properties import (
    CHAOS_PLANS,
    SCHEDULERS,
    chaos_spans,
)

#: sha256 of the canonical JSON of ``chaos_spans(plan, scheduler)``.
CHAOS_DIGESTS = {
    ("none", "dfq"): (
        "3053bff459f120530fc2208ba18e379ca482479d390cd8c0ac343bec09627163"
    ),
    ("none", "disengaged-timeslice"): (
        "39b70c03828fadec663aaa5b992cbf50603136c2b3c797054643362f705b2cf9"
    ),
    ("hang", "dfq"): (
        "4c39755915015bf2973f60d11e38b34ba51d84fd02739f21266bd5c798468ed0"
    ),
    ("hang", "disengaged-timeslice"): (
        "aa2962aa18ea86c40c1d5f84c6614e5a4df289866662fb4aaf36b080b877a973"
    ),
    ("refstall-storm", "dfq"): (
        "3027808d2e67c55da581192080cf43f3c82d09a358b4a23151273c9024ade60b"
    ),
    ("refstall-storm", "disengaged-timeslice"): (
        "ee846fdbdfccc73c554e87dfafd5c3bec1e0159fc911deba213f59d5b92083be"
    ),
    ("spurious", "dfq"): (
        "3053bff459f120530fc2208ba18e379ca482479d390cd8c0ac343bec09627163"
    ),
    ("spurious", "disengaged-timeslice"): (
        "39b70c03828fadec663aaa5b992cbf50603136c2b3c797054643362f705b2cf9"
    ),
    ("mixed", "dfq"): (
        "214a6d09905d43e06afa792282ef88615fce463c4b94ddab36fcce8e27c52c3a"
    ),
    ("mixed", "disengaged-timeslice"): (
        "c7ff9854abc6fbaedd25c99f7f44d91c1c0ae9349890e188493984d8eafe088d"
    ),
}
#: sha256 of the canonical JSON of ``fleet_spans`` with t000 moved to
#: device 1 at 60 ms.
FLEET_MOVE_DIGEST = (
    "35c9073ccced87ae24f22c815bc51b0dcf07b66b110b9485d96375ebb23324c9"
)
#: A version-1 JSONL trace (an ``exec.begin`` record for every execution
#: segment): ``repro trace record --scheduler dfq --apps
#: glxgears,BitonicSort --duration-ms 20`` under the refstall-storm plan
#: aimed at BitonicSort from 8 ms (:func:`refstall_storm_plan`).
V1_TRACE = Path(__file__).parent / "fixtures" / "refstall_storm_v1.jsonl"
#: sha256 of the canonical JSON of that trace's span set.
V1_SPANS_DIGEST = (
    "49de65fd6cbf00615f8701de4158171666bfca60939819c71238938d2d174726"
)
#: sha256 of ``repro why`` stdout on the refstall-storm trace below.
WHY_REFSTALL_DIGEST = (
    "8047797909e89fcf6fdc887b9bab81de83913d3a39f806e185a66128cefd3d81"
)


def span_digest(span_set) -> str:
    text = json.dumps(span_set.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("plan_name", CHAOS_PLANS)
def test_chaos_span_sets_are_pinned(plan_name, scheduler):
    _trace, span_set = chaos_spans(plan_name, scheduler)
    assert span_digest(span_set) == CHAOS_DIGESTS[(plan_name, scheduler)]


def test_fleet_span_set_with_a_migration_is_pinned():
    span_set = fleet_spans(moves=[(60_000.0, "t000", 1)])
    assert span_set.migrations
    assert span_digest(span_set) == FLEET_MOVE_DIGEST


def refstall_storm_plan(task: str, start_us=None) -> str:
    """The built-in refstall-storm plan, aimed at ``task`` (and opening
    at ``start_us`` when given)."""
    plan = json.loads(builtin_plans()["refstall-storm"].dumps())
    for spec in plan["specs"]:
        spec["target_task"] = task
        if start_us is not None:
            spec["start_us"] = start_us
    return json.dumps(plan)


def test_version_1_trace_folds_to_its_recorded_span_set():
    with V1_TRACE.open(encoding="utf-8") as handle:
        assert json.loads(handle.readline())["version"] == 1
    assert span_digest(build_spans(load_trace(str(V1_TRACE)))) == (
        V1_SPANS_DIGEST
    )
    # The same run recorded by this tree folds to the same span set.
    plan = FaultPlan.loads(refstall_storm_plan("BitonicSort", 8_000.0))
    trace, _end = record_trace(
        "dfq", ["glxgears", "BitonicSort"], 20_000.0, 0, None, plan
    )
    assert span_digest(build_spans(trace)) == V1_SPANS_DIGEST


def test_read_jsonl_rejects_an_unknown_version():
    with pytest.raises(ValueError, match="version"):
        read_jsonl(io.StringIO(
            '{"format": "%s", "version": 3}\n' % JSONL_FORMAT
        ))


def test_why_on_a_stalled_publication_trace_is_pinned(tmp_path, capsys):
    plan = tmp_path / "refstall-storm.json"
    plan.write_text(refstall_storm_plan("BitonicSort"), encoding="utf-8")
    trace = tmp_path / "refstall.jsonl"
    assert main([
        "trace", "record", "--scheduler", "dfq",
        "--apps", "glxgears,BitonicSort,BitonicSort",
        "--duration-ms", "120", "--fault-plan", str(plan),
        "-o", str(trace),
    ]) == 0
    # The stall fired: the trace holds the injected fault.
    assert '"fault_injected"' in trace.read_text(encoding="utf-8")
    capsys.readouterr()
    # One window over the whole run, so the post-stall spans count.
    assert main([
        "why", str(trace), "--task", "glxgears", "--window-us", "120000",
    ]) == 0
    out = capsys.readouterr().out
    assert "run overview" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        WHY_REFSTALL_DIGEST
    )


# ----------------------------------------------------------------------
# Equivalence: announcing every segment changes no span
# ----------------------------------------------------------------------

def traced(scheduler, workloads, duration_us, warmup_us=0.0, moves=(),
           **env):
    trace = TraceRecorder()
    built = build_env(scheduler, seed=0, trace=trace, **env)
    run_workloads(built, workloads, duration_us, warmup_us,
                  moves=list(moves))
    return trace, build_spans(trace, built.sim.now)


def preemption_containment():
    params = GpuParams()
    params.preemption_supported = True
    costs = CostParams()
    costs.max_request_us = 60_000.0
    return traced(
        "disengaged-timeslice",
        [InfiniteKernel(normal_size_us=100.0, normal_requests=10),
         make_app("DCT", instance="victim")],
        200_000.0, 50_000.0, gpu_params=params, costs=costs,
    )


def preempted_long_requests():
    params = GpuParams()
    params.preemption_supported = True
    return traced(
        "timeslice",
        [Throttle(45_000.0, name="long"), Throttle(100.0, name="small")],
        200_000.0, gpu_params=params,
    )


def device_loss():
    tenants = [FleetTenant(f"t{i:03d}", request_size_us=800.0)
               for i in range(4)]
    return traced("dfq", tenants, 150_000.0, 10_000.0, devices=2,
                  fault_plan=device_loss_plan(0, 60_000.0))


def fleet_move():
    tenants = [FleetTenant(f"t{i:03d}", request_size_us=800.0)
               for i in range(4)]
    return traced("dfq", tenants, 120_000.0, 10_000.0, devices=2,
                  moves=[(60_000.0, "t000", 1)])


def second_context_killed():
    """A task's context is killed while its other context's request
    runs: ``context_killed`` closes that request's span too."""
    sim = Simulator()
    trace = TraceRecorder()
    device = GpuDevice(sim, trace=trace)
    task = Task("two-contexts", 1)
    first = device.create_context(task)
    second = device.create_context(task)
    device.create_channel(first, RequestKind.COMPUTE)
    channel = device.create_channel(second, RequestKind.COMPUTE)
    device.submit(channel, Request(RequestKind.COMPUTE, 500.0, True))
    sim.schedule(100.0, device.kill_context, first)
    sim.run(until=2_000.0)
    return trace, build_spans(trace, sim.now)


def hang_without_stop_time():
    """A run with no ``until`` ends when the heap drains, with the
    hanging request still on the engine."""
    sim = Simulator()
    trace = TraceRecorder()
    device = GpuDevice(sim, trace=trace)
    task = Task("hung", 1)
    channel = device.create_channel(
        device.create_context(task), RequestKind.COMPUTE
    )
    device.submit(channel, Request(RequestKind.COMPUTE, 300.0, True))
    device.submit(channel, Request(RequestKind.COMPUTE, math.inf, True))
    sim.run()
    return trace, build_spans(trace, sim.now)


def stalled_write(until_us):
    """A 100 µs request whose counter write stalls for 150 µs, then a
    400 µs request of another task, run to ``until_us``."""
    sim = Simulator()
    trace = TraceRecorder()
    plan = FaultPlan(name="stall", specs=(FaultSpec(
        fault_points.GPU_REFCOUNTER_STALL, magnitude_us=150.0, count=1,
        target_task="stalled",
    ),))
    device = GpuDevice(
        sim, trace=trace, faults=Injector(plan, sim, trace=trace)
    )
    for task_id, (name, size_us) in enumerate(
        (("stalled", 100.0), ("next", 400.0)), start=1
    ):
        channel = device.create_channel(
            device.create_context(Task(name, task_id)), RequestKind.COMPUTE
        )
        device.submit(channel, Request(RequestKind.COMPUTE, size_us, True))
    sim.run(until=until_us)
    return trace, build_spans(trace, sim.now)


def chaos_cell(plan_name, scheduler):
    return lambda: chaos_spans(plan_name, scheduler)


SCENARIOS = {
    "preemption-containment": preemption_containment,
    "preempted-long-requests": preempted_long_requests,
    "device-loss": device_loss,
    "fleet-move": fleet_move,
    "second-context-killed": second_context_killed,
    "hang-without-stop-time": hang_without_stop_time,
    # The write lands while the next request executes.
    "publication-lands-mid-segment": lambda: stalled_write(2_000.0),
    # The run stops at the stalled retirement, whose announcement is
    # the stream's last record.
    "stall-at-the-stop-time": lambda: stalled_write(100.0),
    **{
        f"chaos-{plan}-{scheduler}": chaos_cell(plan, scheduler)
        # refstall's counter writes land mid-run, during later segments.
        for plan in CHAOS_PLANS + ("refstall",) for scheduler in SCHEDULERS
    },
}


def summary_without_counts(trace) -> dict:
    """The replayed summary, less what the record count changes."""
    summary = fold_trace(trace).summary.to_dict()
    del summary["records"], summary["kind_counts"]
    return summary


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_announcing_every_segment_changes_no_span(name, monkeypatch):
    trace, span_set = SCENARIOS[name]()
    with monkeypatch.context() as patch:
        patch.setattr(
            ExecutionEngine, "_must_announce", lambda self, request: True
        )
        announced_trace, announced = SCENARIOS[name]()
    assert span_set.spans
    assert span_set.to_dict() == announced.to_dict()
    assert summary_without_counts(trace) == summary_without_counts(
        announced_trace
    )
    # Each segment has one start record: its exec.begin or its
    # completion's begin_us.  Announced segments carry no begin_us.
    counts = trace.kind_counts()
    announced_counts = announced_trace.kind_counts()
    begins = counts.get(events.EXEC_BEGIN, 0)
    carried = sum(
        1 for record in trace.records(kind=events.REQUEST_COMPLETE)
        if "begin_us" in record.payload
    )
    assert begins + carried == announced_counts[events.EXEC_BEGIN]
    assert not any(
        "begin_us" in record.payload
        for record in announced_trace.records(kind=events.REQUEST_COMPLETE)
    )
