"""A module whose emit sites all use registered event-kind constants."""

from repro.obs import events
from repro.obs.events import FAULT


def run(trace, sim, task, aborted):
    trace.emit(sim.now, "kernel", events.FAULT, task=task.name)
    trace.emit(sim.now, "kernel", FAULT, task=task.name)
    trace.emit(sim.now, "kernel", kind=events.TASK_EXIT)
    trace.emit(
        sim.now,
        "gpu",
        events.REQUEST_ABORTED if aborted else events.REQUEST_COMPLETE,
    )
    # Not a trace recorder: other receivers are out of scope.
    recorder = object()
    recorder.emit(sim.now, "kernel", "anything_goes")


class DeviceView:
    """Forwards to a base recorder, as a device-tagging view does."""

    def emit(self, time, source, kind, **payload):
        # ``_base`` is not a trace receiver: the forwarded kind was
        # checked at the site that called this view.
        self._base.emit(time, source, kind, **payload)
        self._base.emit(time, source, "forwarded")
