#!/usr/bin/env python3
"""Writing your own scheduler against the interception API.

The library's scheduler interface is the event-based surface the paper
argues accelerators should expose (Section 6.1): channel activation,
request faults while engaged, observed submissions, and polled
completions.  This example implements a tiny **priority scheduler**: one
task is designated foreground and always passes; background tasks are
blocked whenever the foreground task has been active recently.

It is deliberately unfair — the point is to show how little code a policy
needs on top of the NEON-style substrate.

Run:  python examples/custom_scheduler.py
"""

from typing import Optional

from repro import SchedulerBase, Throttle, build_env, run_workloads
from repro.core.base import register_scheduler
from repro.metrics.tables import format_table


@register_scheduler
class ForegroundFirst(SchedulerBase):
    """Strict foreground priority with a recency window."""

    name = "foreground-first"

    #: How long after a foreground submission the background stays blocked.
    recency_window_us = 200.0

    def setup(self) -> None:
        self.foreground_name: Optional[str] = None
        self._last_foreground_submit = -1e18

    # -- engagement policy: intercept everyone ------------------------
    def on_channel_tracked(self, channel) -> None:
        self.neon.engage_channel(channel)

    # -- the policy ----------------------------------------------------
    def on_fault(self, task, channel, request):
        if task.name == self.foreground_name:
            self._last_foreground_submit = self.sim.now
            self._release_later()
            return None
        if self.sim.now - self._last_foreground_submit > self.recency_window_us:
            return None  # foreground is quiet: background may run
        return self.add_waiter(task)  # woken by release_waiters below

    def _release_later(self) -> None:
        def release():
            if self.sim.now - self._last_foreground_submit >= self.recency_window_us:
                for task in self.managed_tasks:
                    self.release_waiters(task)
            else:
                self.sim.schedule(self.recency_window_us, release)

        self.sim.schedule(self.recency_window_us, release)


def main() -> None:
    env = build_env("foreground-first", seed=0)
    env.scheduler.foreground_name = "interactive"
    interactive = Throttle(50.0, sleep_ratio=0.9, name="interactive")
    batch = Throttle(500.0, name="batch")
    run_workloads(env, [interactive, batch], 300_000.0, 50_000.0)
    rows = [
        [
            workload.name,
            workload.round_stats(50_000.0).mean_us,
            env.device.task_usage(workload.task),
        ]
        for workload in (interactive, batch)
    ]
    print(
        format_table(
            ["task", "round (us)", "device usage (us)"],
            rows,
            title="Custom foreground-first policy "
            "(interactive stays near its native 50us rounds)",
        )
    )
    stats = interactive.round_stats(50_000.0)
    # Non-preemptive: the foreground can still land behind one in-flight
    # 500us batch request, but never behind a queue of them.
    assert stats.mean_us < 350.0, "foreground latency should stay bounded"


if __name__ == "__main__":
    main()
