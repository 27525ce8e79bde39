"""Execution of Table 1 application profiles."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.workloads.base import Workload
from repro.workloads.profiles import APP_PROFILES, AppProfile


class ProfiledApp(Workload):
    """Runs an :class:`~repro.workloads.profiles.AppProfile` in a loop.

    Each round: CPU think time, then the profile's bursts in order.
    Blocking requests wait for completion; non-blocking ones flow through a
    bounded per-channel pipeline (graphics frame queues).  Combined
    compute/graphics applications naturally end up with one channel per
    request kind, which is what trips Disengaged Fair Queueing's
    single-queue assumption (Section 5.3).
    """

    def __init__(self, profile: AppProfile, name: Optional[str] = None) -> None:
        super().__init__(name or profile.name)
        self.profile = profile

    def body(self):
        profile = self.profile
        channels = {kind: self.open_channel(kind) for kind in profile.kinds()}
        while True:
            start = self.sim.now
            if profile.think_us > 0:
                yield from self.cpu_work(self.jittered(profile.think_us))
            for burst in profile.bursts:
                channel = channels[burst.kind]
                for size in burst.sizes:
                    if burst.pre_gap_us > 0:
                        yield from self.cpu_work(self.jittered(burst.pre_gap_us))
                    drawn = self.jittered(size, burst.jitter)
                    if burst.blocking:
                        yield from self.submit(channel, drawn)
                    else:
                        yield from self.submit_pipelined(
                            channel, drawn, profile.pipeline_depth
                        )
            if profile.drain_each_round:
                yield from self.drain_pipeline()
            self.rounds.record(start, self.sim.now)


def make_app(name: str, instance: Optional[str] = None) -> ProfiledApp:
    """Construct a Table 1 application by name.

    ``instance`` overrides the workload label so the same benchmark can
    appear multiple times in one experiment.
    """
    try:
        profile = APP_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(APP_PROFILES))
        raise KeyError(f"unknown application {name!r}; known: {known}") from None
    return ProfiledApp(profile, name=instance)


def app_instances(names: Iterable[str]) -> list[tuple[str, Optional[str]]]:
    """``(app, instance)`` per requested app name, for :func:`make_app`.

    Repeats of an app get distinct task labels (``glxgears``, then
    ``glxgears.2``, ...); the first keeps the plain name (instance
    ``None``), so runs of distinct apps keep their plain labels.
    """
    seen: dict[str, int] = {}
    out: list[tuple[str, Optional[str]]] = []
    for name in names:
        count = seen[name] = seen.get(name, 0) + 1
        out.append((name, None if count == 1 else f"{name}.{count}"))
    return out
