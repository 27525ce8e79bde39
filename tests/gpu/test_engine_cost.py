"""Host-cost guard for the per-request machinery of the device model.

The engine is a callback state machine: a request's wake and completion
are heap callbacks, not :class:`~repro.sim.events.Event` triggers resuming
a generator.  Its delays and completion timer, and every process sleep, are
handle-free heap entries, and a request is its own completion event.  The
completion timer retires its request in the same callback, and a graphics
cooldown is one timer.
This test counts, over a fixed run, the ``Event`` objects and
:class:`~repro.sim.events.TimerHandle` objects built and the process
resumes made per completed request, and pins the total number of heap
entries, so a change that brings per-request side objects back — or adds
or drops a heap entry, which would move same-instant tie-breaks — fails
here.

The run is glxgears + BitonicSort under ``direct`` for 120 ms at seed 0.
"""

from repro.experiments.runner import build_env, run_workloads
from repro.sim.events import Event, TimerHandle
from repro.sim.process import Process
from repro.workloads.apps import make_app

#: Ceilings per completed request.  The run measures 0.39 Events, 0.58
#: TimerHandles and 2.50 resumes.  A ``Request`` binds itself as an event
#: without running ``Event.__init__``, so requests are not in the Event
#: count.  With a separate completion Event per request and a handle per
#: delay it cost 1.40 Events and 3.51 TimerHandles; driving the engine as
#: a generator process, 4.03 Events and 4.80 resumes.
MAX_EVENTS_PER_REQUEST = 0.6
MAX_TIMER_HANDLES_PER_REQUEST = 1.0
MAX_RESUMES_PER_REQUEST = 3.0
#: Heap entries of the whole run (``Simulator._seq``): 5.25 per completed
#: request (931 of them).  It was 6474 (6.95 per request) while each
#: completion took a second hop to retire its request and each cooldown
#: wait took three hops.
HEAP_ENTRIES = 4886


def test_engine_costs_per_completed_request(monkeypatch):
    counts = {"events": 0, "timer_handles": 0, "resumes": 0}
    event_init = Event.__init__
    handle_init = TimerHandle.__init__
    resume = Process._resume

    def counting_event_init(self, *args, **kwargs):
        counts["events"] += 1
        event_init(self, *args, **kwargs)

    def counting_handle_init(self, *args, **kwargs):
        counts["timer_handles"] += 1
        handle_init(self, *args, **kwargs)

    def counting_resume(self, *args):
        counts["resumes"] += 1
        return resume(self, *args)

    monkeypatch.setattr(Event, "__init__", counting_event_init)
    monkeypatch.setattr(TimerHandle, "__init__", counting_handle_init)
    monkeypatch.setattr(Process, "_resume", counting_resume)

    env = build_env("direct", seed=0)
    run_workloads(
        env, [make_app("glxgears"), make_app("BitonicSort")], 120_000.0
    )
    completed = sum(engine.completed_requests for engine in env.device.engines)
    assert completed > 0
    assert counts["events"] / completed <= MAX_EVENTS_PER_REQUEST
    assert counts["timer_handles"] / completed <= MAX_TIMER_HANDLES_PER_REQUEST
    assert counts["resumes"] / completed <= MAX_RESUMES_PER_REQUEST
    assert env.sim._seq == HEAP_ENTRIES
