"""Host-cost guard for the execution engine's per-request machinery.

The engine is a callback state machine: a request's wake and outcome are
heap callbacks, not :class:`~repro.sim.events.Event` triggers resuming a
generator.  This test counts, over a fixed run, the ``Event`` objects
built and the process resumes made per completed request, and pins the
total number of heap entries, so a change that brings the per-request
event/process round trips back — or adds or drops a heap entry, which
would move same-instant tie-breaks — fails here.

The run is glxgears + BitonicSort under ``direct`` for 120 ms at seed 0.
"""

from repro.experiments.runner import build_env, run_workloads
from repro.sim.events import Event
from repro.sim.process import Process
from repro.workloads.apps import make_app

#: Ceilings per completed request.  The state machine measures 1.40
#: Events and 2.50 resumes; driving the engine as a generator process
#: costs 4.03 and 4.80.
MAX_EVENTS_PER_REQUEST = 2.0
MAX_RESUMES_PER_REQUEST = 3.0
#: Heap entries of the whole run (``Simulator._seq``).
HEAP_ENTRIES = 6474


def test_engine_costs_per_completed_request(monkeypatch):
    counts = {"events": 0, "resumes": 0}
    event_init = Event.__init__
    resume = Process._resume

    def counting_init(self, *args, **kwargs):
        counts["events"] += 1
        event_init(self, *args, **kwargs)

    def counting_resume(self, *args):
        counts["resumes"] += 1
        return resume(self, *args)

    monkeypatch.setattr(Event, "__init__", counting_init)
    monkeypatch.setattr(Process, "_resume", counting_resume)

    env = build_env("direct", seed=0)
    run_workloads(
        env, [make_app("glxgears"), make_app("BitonicSort")], 120_000.0
    )
    completed = sum(engine.completed_requests for engine in env.device.engines)
    assert completed > 0
    assert counts["events"] / completed <= MAX_EVENTS_PER_REQUEST
    assert counts["resumes"] / completed <= MAX_RESUMES_PER_REQUEST
    assert env.sim._seq == HEAP_ENTRIES
