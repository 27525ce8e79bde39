"""Per-task engaged vs. disengaged time accounting.

The interception layer feeds an :class:`EngagementLedger` every time a
channel's register page flips between protected (engaged) and direct
(disengaged) access.  The ledger integrates channel-time: a task with two
channels engaged for 50µs accrues 100µs of engaged channel-time.  This is
the quantity behind the paper's "fraction of time spent engaged" overhead
claim, reported per task by the metrics snapshot.

The ledger runs on an :class:`EngagementClock`, and ``repro trace
summary`` and the streaming windows replay a recorded trace through the
same clock, so all three account channel-time by one set of rules.

Pure bookkeeping — no simulator, gpu, or kernel imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs import events
from repro.sim.trace import TraceRecord


#: The page flips, and the state each one switches a channel's clock to.
_FLIPS = {events.CHANNEL_ENGAGED: True, events.CHANNEL_DISENGAGED: False}


class _Clock:
    __slots__ = ("tenant", "engaged", "since", "running")

    def __init__(self, tenant: str, engaged: bool, now: float) -> None:
        self.tenant = tenant
        self.engaged = engaged
        self.since = now
        self.running = True


class EngagementClock:
    """Per-channel engagement clocks crediting per-tenant channel-time.

    A channel's clock runs from :meth:`start` until :meth:`stop`; a
    :meth:`flip` settles the elapsed time, then switches state.  Settled
    time is credited as it settles to ``credit(tenant)``, any object with
    ``engaged_us`` and ``disengaged_us`` fields, so the caller decides
    where it lands: a task's running total, or the tenant of the window
    bucket being filled.

    :meth:`observe` drives the clocks from trace records by the live
    ledger's rules:

    * a channel's clock starts, disengaged, at the first record that
      carries its ``channel`` and ``task`` (pages start unprotected, as
      at device discovery);
    * ``channel_engaged`` / ``channel_disengaged`` flip it;
    * ``task_exit`` or ``task_killed`` for its tenant stops it for good,
      as the kernel releases an exiting or killed task's channels.
    """

    def __init__(self, credit: Callable[[str], Any]) -> None:
        self._credit = credit
        self._clocks: dict[int, _Clock] = {}

    def start(self, channel_id: int, tenant: str, engaged: bool, now: float) -> None:
        self._clocks[channel_id] = _Clock(tenant, engaged, now)

    def flip(self, channel_id: int, engaged: bool, now: float) -> None:
        """No-op for unknown or stopped channels, or no change."""
        clock = self._clocks.get(channel_id)
        if clock is None or not clock.running or clock.engaged == engaged:
            return
        self._settle(clock, now)
        clock.engaged = engaged

    def stop(self, channel_id: int, now: float) -> None:
        clock = self._clocks.get(channel_id)
        if clock is not None and clock.running:
            self._settle(clock, now)
            clock.running = False

    def settle(self, now: float) -> None:
        """Credit every running clock's time up to ``now``, in channel-id
        order."""
        for channel_id in sorted(self._clocks):
            clock = self._clocks[channel_id]
            if clock.running:
                self._settle(clock, now)

    def unsettled(self, now: float) -> Iterator[tuple[str, bool, float]]:
        """``(tenant, engaged, elapsed)`` of every running clock up to
        ``now``, in channel-id order, without settling anything."""
        for channel_id in sorted(self._clocks):
            clock = self._clocks[channel_id]
            if clock.running:
                elapsed = now - clock.since
                if elapsed > 0:
                    yield clock.tenant, clock.engaged, elapsed

    def observe(self, record: TraceRecord) -> None:
        """Apply one record, keyed by its ``tenant``."""
        kind = record.kind
        if kind == events.TASK_EXIT or kind == events.TASK_KILLED:
            tenant = record.tenant
            for channel_id in sorted(self._clocks):
                if self._clocks[channel_id].tenant == tenant:
                    self.stop(channel_id, record.time)
            return
        channel_id = record.payload.get("channel")
        if not isinstance(channel_id, int):
            return
        if channel_id not in self._clocks:
            if record.tenant is None:
                return
            self.start(channel_id, record.tenant, False, record.time)
        engaged = _FLIPS.get(kind)
        if engaged is not None:
            self.flip(channel_id, engaged, record.time)

    def _settle(self, clock: _Clock, now: float) -> None:
        elapsed = now - clock.since
        if elapsed > 0:
            into = self._credit(clock.tenant)
            if clock.engaged:
                into.engaged_us += elapsed
            else:
                into.disengaged_us += elapsed
        clock.since = now


@dataclass
class _Totals:
    engaged_us: float = 0.0
    disengaged_us: float = 0.0


class EngagementLedger:
    """Integrates per-channel engaged/disengaged time, grouped by task."""

    def __init__(self) -> None:
        self._totals: dict[str, _Totals] = {}
        self._clock = EngagementClock(self._task_totals)

    def _task_totals(self, task: str) -> _Totals:
        totals = self._totals.get(task)
        if totals is None:
            totals = self._totals[task] = _Totals()
        return totals

    def track(self, channel_id: int, task: str, engaged: bool, now: float) -> None:
        """Start accounting for a channel (at creation time)."""
        self._task_totals(task)
        self._clock.start(channel_id, task, engaged, now)

    def set_state(self, channel_id: int, engaged: bool, now: float) -> None:
        """Record a protection flip; no-op for unknown channels or no-ops."""
        self._clock.flip(channel_id, engaged, now)

    def untrack(self, channel_id: int, now: float) -> None:
        """Stop accounting (task exit); accrued time is preserved."""
        self._clock.stop(channel_id, now)

    def snapshot(self, now: float) -> dict[str, dict[str, float]]:
        """Per-task ``{engaged_us, disengaged_us}`` channel-time up to ``now``.

        Running channels are settled into the result without mutating
        the ledger, so snapshots are safe mid-run.  Sorted by task name.
        """
        totals = {
            task: {"engaged_us": t.engaged_us, "disengaged_us": t.disengaged_us}
            for task, t in sorted(self._totals.items())
        }
        for task, engaged, elapsed in self._clock.unsettled(now):
            totals[task]["engaged_us" if engaged else "disengaged_us"] += elapsed
        return totals
