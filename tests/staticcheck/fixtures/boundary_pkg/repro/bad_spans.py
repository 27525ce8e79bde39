"""Span-boundary kinds checked as event kinds (line numbers matter to the tests)."""

from repro.obs import events


def run(trace, sim, task):
    trace.emit(sim.now, "scheduler", "barrier_begin", episode=1)  # NEON401
    trace.emit(sim.now, "scheduler", MY_PHASE_BEGIN, task=task.name)  # NEON402
    trace.emit(sim.now, "scheduler", kind=MY_PHASE_END)  # NEON402 (kwarg)
    trace.emit(
        sim.now,
        "scheduler",
        events.BARRIER_END if task.done else MY_PHASE_END,  # NEON402 branch
    )
    trace.emit(sim.now, "scheduler", events.BARRIER_BEGIN, episode=2)  # clean
    trace.emit(sim.now, "kernel", events.FAULT, task=task.name)  # clean
    trace.emit(sim.now, "scheduler", "my.phase_begin")  # neonlint: allow[NEON401] test


MY_PHASE_BEGIN = "my.phase_begin"
MY_PHASE_END = "my.phase_end"
