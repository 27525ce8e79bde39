"""Seeded NEON401/NEON402 violations (line numbers matter to the tests)."""

from repro.obs import events


def run(trace, sim, task):
    trace.emit(sim.now, "kernel", "fault", task=task.name)  # NEON401
    trace.emit(sim.now, "kernel", kind="task_exit")  # NEON401 (kwarg)
    trace.emit(sim.now, "kernel", MY_PRIVATE_KIND, task=task.name)  # NEON402
    trace.emit(sim.now, "kernel", events.NOT_A_KIND)  # NEON402
    trace.emit(
        sim.now,
        "gpu",
        events.REQUEST_ABORTED if task.dead else "request_complete",  # NEON401
    )
    trace.emit(sim.now, "kernel", "audited")  # neonlint: allow[NEON401] test


def deep_receiver(self):
    self.kernel.trace.emit(self.sim.now, "kernel", "fault")  # NEON401


MY_PRIVATE_KIND = "my_private_kind"


def private_and_named_receivers(self, src_trace, now):
    self._trace.emit(now, "x", "lit")  # NEON401 (private recorder handle)
    src_trace.emit(now, "x", NOT_A_KIND)  # NEON402 (receiver ends in trace)
