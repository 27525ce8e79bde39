"""Shared fixtures: one traced DFQ run reused across the obs test suite."""

import pytest

from repro.experiments.runner import build_env, run_workloads
from repro.sim.trace import TraceRecorder
from repro.workloads.apps import make_app

#: Short but nontrivial: several engagement episodes, a denial or two.
DURATION_US = 200_000.0


def traced_run(scheduler="dfq", apps=("glxgears", "BitonicSort"), seed=0,
               duration_us=DURATION_US, max_records=None, sinks=()):
    """Run a small simulation with tracing on; returns (env, trace, results).

    ``sinks`` are subscribed to the recorder before the run starts.
    """
    trace = TraceRecorder(max_records=max_records)
    for sink in sinks:
        trace.add_sink(sink)
    env = build_env(scheduler, seed=seed, trace=trace)
    workloads = [make_app(name) for name in apps]
    results = run_workloads(env, workloads, duration_us=duration_us)
    return env, trace, results


@pytest.fixture(scope="module")
def dfq_run():
    return traced_run()


@pytest.fixture(scope="session")
def fleet_trace_file(tmp_path_factory):
    """The device-tagged 2-device fleet trace of ``repro fleet run
    --devices 2 --tenants 4 --duration-ms 100``."""
    from repro.cli import main

    path = tmp_path_factory.mktemp("fleet") / "fleet.jsonl"
    main([
        "fleet", "run", "--devices", "2", "--tenants", "4",
        "--duration-ms", "100", "--trace-out", str(path),
    ])
    return path
