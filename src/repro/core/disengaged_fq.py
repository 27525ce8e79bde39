"""Disengaged Fair Queueing (§3.3) — the paper's flagship scheduler.

The scheduler alternates between long disengaged **free-run** periods
(direct device access for every admitted task) and short **engagement
episodes**.  Each episode (Figure 3):

1. *Barrier*: protect every register page so no new request slips in.
2. *Drain*: poll reference counters until outstanding requests finish;
   a drain timeout identifies runaway requests and kills the offender.
3. *Sampling*: each task active in the preceding free-run gets a brief
   exclusive window with fully intercepted requests, yielding per-channel
   average request-size estimates (skipped by the vendor-statistics
   variant below).
4. *Virtual-time maintenance*: per-task virtual times advance by their
   estimated usage of the last interval; the system virtual time advances
   to the oldest active task's time; inactive tasks are pulled forward.
5. *Decision*: tasks ahead of the system virtual time by at least the
   upcoming interval's length are denied access (their pages stay
   protected); everyone else free-runs.

**The usage estimator and its deliberate flaw.**  Lacking hardware
statistics, usage during a free-run is estimated as the interval length
split *proportionally to per-task average request size* across active
tasks — i.e. assuming the device cycles round-robin among active channels
(Section 3.3, "From model to prototype").  This assumption holds for
single-queue compute workloads (making DFQ fair exactly where the paper is
fair) and breaks for graphics and multi-channel tasks (reproducing the
paper's glxgears anomaly and oclParticles unfairness).
:class:`DisengagedFairQueueingHW` replaces the estimator with
vendor-provided statistics, the fix the paper recommends for production.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.base import SchedulerBase, register_scheduler
from repro.core.virtual_time import VirtualTimeTable
from repro.neon.stats import DEFAULT_SIZE_GUESS_US, ChannelKind
from repro.obs import events
from repro.sim.events import AnyOf

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.channel import Channel
    from repro.gpu.request import Request
    from repro.osmodel.task import Task
    from repro.sim.events import Event


class _SamplingWindow:
    """Per-window observation state (kept per window so late polling
    callbacks from a previous window cannot contaminate the next)."""

    def __init__(self, scheduler: "DisengagedFairQueueing", task: "Task",
                 target_requests: int) -> None:
        self.scheduler = scheduler
        self.task = task
        self.target_requests = target_requests
        self.observed = 0
        self.usage_us = 0.0
        self.last_observed: dict[int, float] = {}
        self.last_activity = scheduler.sim.now
        self.done = scheduler.sim.event()
        self.closed = False

    def on_submit(self, channel: "Channel", request: "Request") -> None:
        submit_time = self.scheduler.sim.now
        self.last_activity = submit_time

        def on_completion(observed_channel: "Channel") -> None:
            self._record(observed_channel, submit_time)

        self.scheduler.kernel.polling.watch(channel, request.ref, on_completion)

    def _record(self, channel: "Channel", submit_time: float) -> None:
        if self.closed:
            # The fine-grained poller is gone; a late observation would be
            # quantized at the 1 ms pass and poison the size estimate.
            return
        now = self.scheduler.sim.now
        self.last_activity = now
        busy_since = max(submit_time, self.last_observed.get(channel.channel_id, 0.0))
        service = max(now - busy_since, 0.05)
        self.last_observed[channel.channel_id] = now
        self.scheduler.neon.record_sampled_service(channel, service)
        self.observed += 1
        self.usage_us += service
        if self.observed >= self.target_requests and not self.done.triggered:
            self.done.trigger()


@register_scheduler
class DisengagedFairQueueing(SchedulerBase):
    """Probabilistically fair, near-work-conserving disengaged scheduling."""

    name = "dfq"

    #: Set by :class:`DisengagedFairQueueingHW` to skip software sampling.
    uses_hw_stats = False

    def __init__(self, weights: Optional[dict[str, float]] = None) -> None:
        super().__init__()
        #: Task name -> relative share weight (weighted fair queueing): a
        #: weight-2 task is entitled to twice a weight-1 task's device
        #: time.  Unnamed tasks default to 1.0.
        self.share_weights = dict(weights or {})

    def setup(self) -> None:
        self.vt = VirtualTimeTable()
        self._phase = "engage"
        self._allowed: set[int] = set()
        self._window: Optional[_SamplingWindow] = None
        self._activation: Optional["Event"] = None
        self._last_freerun_us = 0.0
        self._last_active_weights: dict[int, float] = {}
        self.episodes = 0
        self.denials = 0
        #: Per-episode decisions: (time, allowed count, denied count).
        self.decision_log: list[tuple[float, int, int]] = []
        #: Where scheduler time goes (for the overhead-breakdown study).
        self.time_breakdown = {
            "drain_wait_us": 0.0,
            "sampling_us": 0.0,
            "engagement_us": 0.0,
            "freerun_us": 0.0,
        }
        self.sim.spawn(self._loop(), name=f"{self.name}-scheduler")

    # ------------------------------------------------------------------
    # Event interface
    # ------------------------------------------------------------------
    def on_channel_tracked(self, channel: "Channel") -> None:
        # New channels start intercepted; they join the free-run rotation
        # at the next engagement decision (mid-free-run mappings are always
        # captured, Section 4).
        self.neon.engage_channel(channel)
        self.vt.ensure(channel.task.task_id)
        if self._activation is not None and not self._activation.triggered:
            self._activation.trigger()

    def on_fault(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> Optional["Event"]:
        window = self._window
        if window is not None and window.task is task:
            return None  # sampled task: allow and observe
        if self._phase == "freerun" and task.task_id in self._allowed:
            return None  # e.g. a channel mapped mid-free-run of an admitted task
        return self.add_waiter(task)

    def on_submit(
        self, task: "Task", channel: "Channel", request: "Request"
    ) -> None:
        window = self._window
        if window is not None and window.task is task:
            window.on_submit(channel, request)

    def on_task_exit(self, task: "Task") -> None:
        super().on_task_exit(task)
        self.vt.forget(task.task_id)
        self._allowed.discard(task.task_id)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _task_weight(self, task: "Task", active_channels: list["Channel"]) -> float:
        """Round-robin usage proxy: active channel count × the task-level
        mean request size.

        The paper's prototype keeps "the request-size estimate across the
        two (or more) channels of every task" (Section 5.3) — a *per-task*
        average.  For single-queue tasks this equals the per-channel mean;
        for combined compute/graphics tasks the mean is dominated by
        whichever requests the sampling window saw most (usually the tiny
        compute ones), which is exactly why the estimate "becomes an
        invalid proxy of resource usage" for such tasks.
        """
        if not active_channels:
            return 0.0
        total = 0.0
        count = 0
        for channel in self.neon.channels_of(task):
            observation = self.neon.observation(channel)
            if observation.sizes.sample_count == 0:
                continue
            total += observation.sizes.mean * observation.sizes.sample_count
            count += observation.sizes.sample_count
        task_mean = total / count if count else DEFAULT_SIZE_GUESS_US
        return task_mean * len(active_channels)

    def _sample_target(self, task: "Task") -> int:
        """Requests to observe: tripled for combined compute+graphics tasks
        (the paper uses 96 instead of 32) to capture bimodal sizes."""
        kinds = {
            self.neon.observation(channel).channel_kind
            for channel in self.neon.channels_of(task)
        }
        if ChannelKind.GRAPHICS in kinds and len(kinds) > 1:
            return self.costs.sample_max_requests * 3
        return self.costs.sample_max_requests

    # ------------------------------------------------------------------
    # The engagement/free-run cycle
    # ------------------------------------------------------------------
    def _loop(self):
        while True:
            if not self.neon.live_channels():
                self._activation = self.sim.event()
                yield self._activation
                self._activation = None
                continue
            yield from self._episode()

    def _episode(self):
        self.episodes += 1
        self._phase = "engage"
        self._allowed = set()
        episode_start = self.sim.now
        trace = self.kernel.trace
        self.kernel.metrics.inc("episodes", self.name)
        if trace.enabled:
            trace.emit(
                episode_start, self.name, events.BARRIER_BEGIN,
                episode=self.episodes,
            )

        # 1. Barrier: stop new submissions everywhere.
        flips = self.neon.engage_all()
        yield self.neon.flip_cost(flips)
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.BARRIER_END,
                episode=self.episodes, flips=flips,
            )

        # 2. Drain, with runaway protection.
        yield from self._drain_all()

        # Barrier up and every channel drained: the only moment fleet
        # migration may commit and global re-weighting may land.
        if self.boundary_hooks:
            yield from self.run_boundary_hooks()

        # 3. Activity detection for the preceding interval (ring-buffer
        #    scans were just paid for by the drain).
        activity = self._detect_activity()
        active_tasks = [task for task in self.managed_tasks
                        if task.alive and activity.get(task.task_id)]

        # 4. Sampling runs (software statistics only).
        sampled_usage: dict[int, float] = {}
        if not self.uses_hw_stats:
            sampling_start = self.sim.now
            for task in list(active_tasks):
                if not task.alive:
                    continue
                usage = yield from self._sample_task(task)
                sampled_usage[task.task_id] = usage
            self.time_breakdown["sampling_us"] += self.sim.now - sampling_start

        # 5. Virtual-time maintenance and the denial decision (the paper's
        # three steps).  Note that charging each active task its full
        # round-robin *share* of the interval — rather than its true usage
        # — is what keeps a partially idle task from holding the system
        # virtual time back: unclaimed capacity is charged as if used,
        # the interval-granular analogue of rule 2's idle forfeiture.
        usage = self._estimate_usage(active_tasks, activity)
        for task in active_tasks:
            task_usage = usage.get(task.task_id, 0.0)
            task_usage += sampled_usage.get(task.task_id, 0.0)
            # Weighted fair queueing: virtual time advances by normalized
            # usage, so a weight-w task is entitled to w shares.
            self.vt.advance(
                task.task_id, task_usage / self.share_weights.get(task.name, 1.0)
            )
        self.vt.update_system([task.task_id for task in active_tasks])
        active_ids = {task.task_id for task in active_tasks}
        for task in self.managed_tasks:
            if task.alive and task.task_id not in active_ids:
                self.vt.lift_inactive(task.task_id)
        if trace.enabled:
            for task in active_tasks:
                task_usage = (usage.get(task.task_id, 0.0)
                              + sampled_usage.get(task.task_id, 0.0))
                trace.emit(
                    self.sim.now, self.name, events.VT_UPDATE,
                    task=task.name,
                    usage_us=task_usage,
                    vt=self.vt.get(task.task_id),
                    system_vt=self.vt.system_vt,
                )
                trace.emit(
                    self.sim.now, self.name, events.SHARE_SAMPLE,
                    task=task.name, usage_us=task_usage,
                    interval_us=self._last_freerun_us,
                )

        upcoming = self._freerun_length(len(active_tasks))
        denied: list["Task"] = []
        for task in self.managed_tasks:
            if not task.alive:
                continue
            if self.vt.lag(task.task_id) >= upcoming:
                denied.append(task)
                self.denials += 1
            else:
                self._allowed.add(task.task_id)
        # Never deny everyone: that would idle the device against pending
        # work; admit the least-ahead task instead.
        if not self._allowed and denied:
            least_ahead = min(denied, key=lambda t: self.vt.lag(t.task_id))
            denied.remove(least_ahead)
            self._allowed.add(least_ahead.task_id)
        for task in denied:
            self.emit_denial(task, self.vt.lag(task.task_id))

        self.decision_log.append(
            (self.sim.now, len(self._allowed), len(denied))
        )

        # Mark engagement points for next interval's activity detection.
        for channel in self.neon.live_channels():
            self.neon.mark_engagement(channel)

        # 6. Free run.  Quarantined tasks (watchdog degradation) keep
        # their pages protected regardless of the fairness decision.
        self._phase = "freerun"
        flips = 0
        for task in self.managed_tasks:
            if task.alive and task.task_id in self._allowed:
                if self.watchdog.is_quarantined(task):
                    self._allowed.discard(task.task_id)
                    continue
                flips += self.neon.disengage_task(task)
        yield self.neon.flip_cost(flips)
        for task in self.managed_tasks:
            if task.alive and task.task_id in self._allowed:
                self.release_waiters(task)
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.FREERUN_START,
                allowed=sorted(self._allowed),
                denied=[task.name for task in denied],
                freerun_us=upcoming,
            )
        self.time_breakdown["engagement_us"] += self.sim.now - episode_start
        freerun_start = self.sim.now
        yield upcoming
        self._last_freerun_us = self.sim.now - freerun_start
        self.time_breakdown["freerun_us"] += self._last_freerun_us

    def _drain_all(self):
        # A stuck drain means some request exceeded the documented limit
        # — or, under injected faults, that the drain's observations lie.
        # The watchdog kills an attributable running culprit immediately
        # (and drains again so queued victims behind it survive), and
        # walks the retry/degrade/kill ladder for unattributable stalls.
        yield from self.watchdog.drain_all(self._charge_drain_wait)

    def _charge_drain_wait(self, waited_us: float) -> None:
        self.time_breakdown["drain_wait_us"] += waited_us

    def _detect_activity(self) -> dict[int, bool]:
        """Which tasks submitted work since the last engagement mark.

        Uses the reference numbers recovered by the drain's ring-buffer
        scans (``last_scanned_ref``): the barrier is up, so no submission
        can have slipped in after the scan and the scanned value is
        current.
        """
        activity: dict[int, bool] = {}
        for channel in self.neon.live_channels():
            observation = self.neon.observation(channel)
            advanced = observation.last_scanned_ref > observation.ref_at_last_engagement
            if advanced:
                activity[channel.task.task_id] = True
        return activity

    def _active_channels_of(self, task: "Task") -> list["Channel"]:
        channels = []
        for channel in self.neon.channels_of(task):
            observation = self.neon.observation(channel)
            if observation.last_scanned_ref > observation.ref_at_last_engagement:
                channels.append(channel)
        return channels

    def _estimate_usage(
        self, active_tasks: list["Task"], activity: dict[int, bool]
    ) -> dict[int, float]:
        """Split the last free-run interval proportionally to average
        request size across active tasks (the round-robin assumption)."""
        if self._last_freerun_us <= 0 or not active_tasks:
            return {}
        weights = {
            task.task_id: self._task_weight(task, self._active_channels_of(task))
            for task in active_tasks
        }
        total = sum(weights.values())
        if total <= 0:
            return {}
        return {
            task_id: self._last_freerun_us * weight / total
            for task_id, weight in weights.items()
        }

    def _freerun_length(self, active_count: int) -> float:
        """Free-run period: multiplier × the nominal engagement episode
        (one maximum sampling window per active task; §5.2's 25/50 ms)."""
        windows = max(active_count, 1)
        return self.costs.freerun_multiplier * windows * self.costs.sample_max_us

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _sample_task(self, task: "Task"):
        """Give ``task`` a brief exclusive, fully intercepted window and
        measure its request sizes.  Returns the task's observed usage."""
        window = _SamplingWindow(self, task, self._sample_target(task))
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.SAMPLE_WINDOW_BEGIN,
                task=task.name, target_requests=window.target_requests,
            )
        self._window = window
        poller = self.sim.spawn(self._fine_poll(), name="dfq-sampling-poller")
        self.release_waiters(task)

        deadline = self.sim.event()
        timer = self.sim.schedule(self.costs.sample_max_us, deadline.trigger)
        first = yield AnyOf(self.sim, [window.done, deadline])
        if first is window.done:
            timer.cancel()
        window.closed = True
        self._window = None
        poller.kill()

        # Drain the sampled task so the next window is exclusive too; the
        # watchdog kills a genuine runaway and rides out injected stalls.
        channels = self.neon.channels_of(task)
        if channels:
            yield from self.watchdog.drain_task(task, channels)
        if trace.enabled:
            trace.emit(
                self.sim.now, self.name, events.SAMPLE_WINDOW_END,
                task=task.name, observed=window.observed,
                usage_us=window.usage_us,
            )
        return window.usage_us

    def _fine_poll(self):
        """Prompt the polling thread at fine granularity while sampling,
        and end the window early if the sampled task has gone idle."""
        while True:
            yield self.costs.sampling_poll_interval_us
            self.kernel.polling.prompt()
            window = self._window
            if window is None or window.done.triggered:
                continue
            idle_for = self.sim.now - window.last_activity
            if idle_for >= self.costs.sample_idle_end_us and self._task_quiet(
                window.task
            ):
                window.done.trigger()

    def _task_quiet(self, task: "Task") -> bool:
        """Nothing outstanding on any of the task's channels.

        Submission counts are known exactly during sampling (every request
        faulted); completion state comes from the kernel-mapped reference
        counters.  Both observations live behind the interception layer.
        """
        return self.neon.task_quiet(task)


@register_scheduler
class DisengagedFairQueueingHW(DisengagedFairQueueing):
    """DFQ with vendor-provided usage statistics (§3.3/§6.1 ablation).

    Models hardware that exports per-task cumulative resource usage: the
    sampling phase disappears and the usage estimator reads exact per-task
    engine time.  This is the only scheduler allowed to touch the device's
    ground-truth accounting, standing in for the documented statistics
    interface the paper asks vendors to provide.
    """

    name = "dfq-hw"
    uses_hw_stats = True

    def setup(self) -> None:
        super().setup()
        self._usage_marks: dict[int, float] = {}

    def _estimate_usage(
        self, active_tasks: list["Task"], activity: dict[int, bool]
    ) -> dict[int, float]:
        device = self.kernel.device  # neonlint: allow[NEON102] §6.1 vendor-statistics ablation: the documented usage interface
        usage: dict[int, float] = {}
        for task in active_tasks:
            cumulative = device.task_usage(task)  # neonlint: allow[NEON102] §6.1 vendor-statistics ablation: the documented usage interface
            mark = self._usage_marks.get(task.task_id, 0.0)
            usage[task.task_id] = max(0.0, cumulative - mark)
            self._usage_marks[task.task_id] = cumulative
        return usage

    def _freerun_length(self, active_count: int) -> float:
        # No sampling windows: the nominal episode is a single barrier, so
        # the paper's 5x rule is applied to one maximum sampling window.
        return self.costs.freerun_multiplier * self.costs.sample_max_us
