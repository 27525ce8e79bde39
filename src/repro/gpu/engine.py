"""The device execution engine.

Serves pending channels round-robin — the service discipline the paper's
reverse engineering observed — paying a context-switch cost when crossing
context boundaries.  Two behaviours matter for reproducing the paper's
results:

* **Request-granularity arbitration.**  The engine alternates between
  channels *per request*, so a channel with larger requests receives a
  proportionally larger share of device time.  This is the root cause of
  the unfairness of direct device access (Figure 6, leftmost column).

* **Non-uniform graphics arbitration.**  When graphics and compute channels
  compete, graphics channels are served once per
  ``graphics_service_penalty`` opportunities, modeling the paper's
  observation that glxgears requests complete at roughly one third the
  rate of concurrent compute requests (Section 5.3's anomaly).

The engine is a callback state machine on the simulator's heap, not a
process.  Each heap entry stands for one hardware event:

* **Delays.**  A stall, context switch, restore, save, refcounter stall
  or the completion timer is one handle-free ``sim.schedule_after``.  The
  completion timer retires its request and serves the next one in the
  same callback, as the device's completion is one reference-counter
  write.
* **The graphics cooldown.**  When only penalized graphics channels are
  pending, the engine idles with one cancellable timer whose callback
  serves.  It is the only entry that holds a handle.
* **The notify wake.**  A notify wakes an idle engine one hop later, and
  cancels the cooldown timer if one is armed.  Notifies within that hop
  are free, so a burst of enqueues costs one wake.
* **The external settle.**  :meth:`ExecutionEngine.abort_current` (from
  ``GpuDevice.kill_context``) and :meth:`ExecutionEngine.preempt_current`
  (from NEON) settle the running request one hop later.  The caller
  finishes its own work first: a kill marks the context's channels dead,
  discards their queues and injects the cleanup stall before the engine
  picks its next channel.  Settling bumps the execution generation, so
  the settled request's completion timer stays queued and fires as a
  no-op.

Every entry sits at a fixed ``(time, seq)`` point, so same-instant
tie-breaks with the rest of the system are deterministic.

When tracing is on, a ``request_complete`` carries its execution
segment's start as ``begin_us``, and the segment gets no record of its
own.  The engine emits ``exec.begin`` (dated at the segment's start)
only where no completion can stand in for it in stream order:

* **Settle.**  An abort or a preemption announces the running segment
  before it returns, ahead of the kill's ``context_killed`` and of the
  ``request_preempted``.  A kill also announces a running segment of
  the same task on another context (:meth:`announce_task`), since
  ``context_killed`` closes all of the task's spans.
* **Stalled counter write.**  A retirement whose publication is stalled
  announces its segment at retire, and while any publication is pending
  each new segment is announced at its start, so the successor's start
  still ends the stalled request's engine occupancy.
* **No completion in this run.**  A segment whose completion timer falls
  after the run's stop time (``Simulator.until``), or that never
  completes, is announced at its start.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.faults import registry as fault_points
from repro.gpu.channel import Channel
from repro.gpu.request import Request, RequestKind
from repro.obs import events

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import GpuDevice
    from repro.gpu.params import GpuParams
    from repro.sim.engine import Simulator


class ExecutionEngine:
    """One execution engine (main compute/graphics, or the copy engine)."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        params: "GpuParams",
        kinds: frozenset[RequestKind],
        device: "GpuDevice",
    ) -> None:
        self.sim = sim
        self.name = name
        #: The ``source`` of every trace record this engine emits.
        self.trace_source = f"gpu.{name}"
        self.params = params
        self.kinds = kinds
        self.device = device
        self._channels: list[Channel] = []
        self._cursor = 0
        #: True while the engine waits for :meth:`notify`; the cooldown
        #: timer, when armed, also ends the wait.
        self._waiting = False
        self._cooldown_timer = None
        #: Generation of the running execution; bumped by an abort or a
        #: preemption, so the completion timer it leaves behind finds a
        #: stale generation and does nothing.
        self._exec_gen = 0
        #: False only while the running request's outcome is still open.
        self._settled = True
        self._segment_start = 0.0
        #: True once the running segment's ``exec.begin`` is emitted
        #: (kept only while tracing is on).
        self._announced = False
        #: Retired requests whose stalled counter write is still pending.
        self._pending_publications = 0
        self._pending_stall = 0.0
        self.preemptions = 0
        #: Notifies that woke an idle engine (notifies that found it running
        #: or already woken are not counted).
        self.wakeups = 0
        self.current: Optional[Request] = None
        self.current_channel: Optional[Channel] = None
        self._last_context = None
        self._last_channel: Optional[Channel] = None
        self._last_nongraphics_end = -1e18
        #: Cumulative engine-busy microseconds (service + switching + stalls).
        self.busy_us = 0.0
        #: Cumulative switching overhead alone.
        self.switch_us = 0.0
        self.completed_requests = 0
        sim.schedule_now(self._serve)

    # ------------------------------------------------------------------
    # Channel registration
    # ------------------------------------------------------------------
    def register_channel(self, channel: Channel) -> None:
        if channel.kind not in self.kinds:
            raise ValueError(f"{channel.kind.value} channel on engine {self.name}")
        self._channels.append(channel)
        channel._graphics_earliest = 0.0  # arbitration-penalty cooldown

    def unregister_channel(self, channel: Channel) -> None:
        try:
            self._channels.remove(channel)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # External control
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Wake the engine: new work may be available.

        Idempotent within an instant: the first notify of an idle period
        wakes the engine, later ones are free.  Batched submission
        (``GpuDevice.submit_batch``) relies on this — a burst of enqueues
        costs one wake; ``wakeups`` counts the notifies that woke an idle
        engine, with or without a cooldown timer armed.
        """
        if not self._waiting:
            return
        self._waiting = False
        self.wakeups += 1
        if self._cooldown_timer is not None:
            self._cooldown_timer.cancel()
            self._cooldown_timer = None
        self.sim.schedule_now(self._serve)

    def abort_current(self, context) -> bool:
        """Abort the running request if it belongs to ``context``."""
        if (
            self.current is not None
            and self.current_channel is not None
            and self.current_channel.context is context
            and not self._settled
        ):
            self._settle(preempted=False)
            return True
        return False

    def preempt_current(self, context=None) -> bool:
        """Preempt the running request (hardware preemption, §6.2).

        The request's state is saved, the remainder requeued at the head
        of its channel, and the engine moves on after the save cost.  With
        ``context`` given, only a request of that context is preempted.
        Returns True if a preemption was initiated.
        """
        if not self.params.preemption_supported:
            return False
        if self.current is None or self.current_channel is None:
            return False
        if context is not None and self.current_channel.context is not context:
            return False
        if self._settled:
            return False
        self._settle(preempted=True)
        return True

    def _settle(self, preempted: bool) -> None:
        """Close the running execution for an abort or a preemption, which
        takes effect one hop later, once the caller has finished its own
        work.  The generation bump makes the completion timer stale."""
        self._exec_gen += 1
        self._settled = True
        if self.device.trace.enabled and not self._announced:
            self._announce(self.current_channel, self.current)
        self.sim.schedule_now(self._on_settled, preempted)

    def _on_settled(self, preempted: bool) -> None:
        if preempted:
            self._suspend()
        else:
            self._retire(True)
            self._serve()

    def inject_stall(self, duration_us: float) -> None:
        """Consume engine time outside any request (context cleanup)."""
        self._pending_stall += duration_us
        self.notify()

    @property
    def idle(self) -> bool:
        """True when nothing is running and no servable work is queued."""
        if self.current is not None or self._pending_stall > 0:
            return False
        return not any(
            channel.queue
            for channel in self._channels
            if not channel.masked and not channel.dead
        )

    # ------------------------------------------------------------------
    # Arbitration
    # ------------------------------------------------------------------
    def _pick(self) -> tuple[Optional[Channel], Optional[float]]:
        """Choose the next channel (round-robin with the graphics penalty).

        Returns ``(channel, None)`` to serve, ``(None, delay)`` when only
        penalized graphics channels are pending (re-arbitrate after the
        cooldown), or ``(None, None)`` when nothing is pending.
        """
        live = self._channels
        count = len(live)
        if count == 0:
            return None, None
        now = self.sim.now
        graphics = RequestKind.GRAPHICS
        earliest_blocked: Optional[float] = None
        any_pending = False
        index = self._cursor % count
        for _ in range(count):
            channel = live[index]
            index += 1
            if index == count:
                index = 0
            if channel.dead or channel.masked or not channel.queue:
                continue
            any_pending = True
            if channel.kind is graphics and channel._graphics_earliest > now:
                if (
                    earliest_blocked is None
                    or channel._graphics_earliest < earliest_blocked
                ):
                    earliest_blocked = channel._graphics_earliest
                continue
            self._cursor = index
            return channel, None
        if not any_pending:
            return None, None
        return None, max(earliest_blocked - now, 0.01)

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        """Start the engine's next step: a pending stall, the next
        request, or a wait for work."""
        stall = self._pending_stall
        if stall > 0:
            self._pending_stall = 0.0
            self.sim.schedule_after(stall, self._stalled, stall)
            return

        channel, retry_delay = self._pick()
        if channel is None:
            # Nothing servable right now.  Wait for new work; when only
            # penalized graphics channels are pending, also re-arbitrate
            # once their cooldown expires (non-work-conserving hardware
            # arbitration).
            self._waiting = True
            if retry_delay is not None:
                self._cooldown_timer = self.sim.schedule(retry_delay, self._cooled)
            return

        switch_cost = self._switch_cost(channel)
        faults = self.device.faults
        if faults is not None and switch_cost > 0:
            spike = faults.arm(
                fault_points.GPU_CONTEXT_SWITCH_SPIKE, channel.task.name
            )
            if spike is not None:
                switch_cost += spike.magnitude_us
        if switch_cost > 0:
            self.sim.schedule_after(switch_cost, self._switched, channel, switch_cost)
            return
        self._start(channel)

    def _stalled(self, stall: float) -> None:
        self.busy_us += stall
        self._serve()

    def _cooled(self) -> None:
        self._cooldown_timer = None
        self._waiting = False
        self._serve()

    def _switched(self, channel: Channel, switch_cost: float) -> None:
        self.busy_us += switch_cost
        self.switch_us += switch_cost
        # The queue may have changed (e.g. the context died) while we were
        # switching; re-arbitrate from scratch.
        if channel.dead or not channel.queue:
            self._last_context = None
            self._last_channel = None
            self._serve()
            return
        self._start(channel)

    def _start(self, channel: Channel) -> None:
        self._last_context = channel.context
        self._last_channel = channel
        request = channel.queue.popleft()
        channel.running = request
        if request.preemptions > 0:
            # Restore the saved execution state before resuming.
            restore = self.params.preemption_save_restore_us
            self.sim.schedule_after(restore, self._restored, channel, request, restore)
            return
        self._execute(channel, request)

    def _restored(self, channel: Channel, request: Request, restore: float) -> None:
        self.busy_us += restore
        self.switch_us += restore
        self._execute(channel, request)

    def _execute(self, channel: Channel, request: Request) -> None:
        sim = self.sim
        if request.start_time is None:
            request.start_time = sim.now
            faults = self.device.faults
            if faults is not None and not request.never_completes:
                slow = faults.arm(
                    fault_points.GPU_REQUEST_SLOWDOWN, channel.task.name
                )
                if slow is not None:
                    # Hardware runs slow; the submitter's declared size_us
                    # is unchanged — it believes the request is still small.
                    request.remaining_us *= slow.factor
        self._segment_start = sim.now
        self.current = request
        self.current_channel = channel
        self._settled = False
        if not request.never_completes:
            sim.schedule_after(request.remaining_us, self._finished, self._exec_gen)
        if self.device.trace.enabled:
            self._announced = False
            if self._must_announce(request):
                self._announce(channel, request)

    def _must_announce(self, request: Request) -> bool:
        """True when the segment starting now needs its own
        ``exec.begin``: its completion will not arrive in this run, or
        a stalled publication is pending."""
        until = self.sim.until
        return (
            self._pending_publications > 0
            or until is None
            or request.never_completes
            or self.sim.now + request.remaining_us > until
        )

    def _announce(self, channel: Channel, request: Request) -> None:
        """Emit the running segment's ``exec.begin``, dated at its start."""
        self._announced = True
        self.device.trace.emit(
            self._segment_start, self.trace_source, events.EXEC_BEGIN,
            task=channel.task.name, channel=channel.channel_id,
            ref=request.ref,
        )

    def announce_task(self, task) -> None:
        """Announce the running segment if it belongs to ``task``: a
        ``context_killed`` for the task is about to close its spans."""
        channel = self.current_channel
        if (
            channel is not None
            and channel.task is task
            and not self._announced
        ):
            self._announce(channel, self.current)

    def _finished(self, gen: int) -> None:
        """The completion timer fired: unless the execution was already
        settled, retire the request and serve the next one."""
        if gen == self._exec_gen:
            self._settled = True
            self._retire(False)
            self._serve()

    def _switch_cost(self, channel: Channel) -> float:
        if self._last_context is None:
            return 0.0
        if self._last_context is not channel.context:
            return self.params.context_switch_us
        if self._last_channel is not channel:
            return self.params.channel_switch_us
        return 0.0

    def _suspend(self) -> None:
        """Preemption path: charge the executed segment, save state, and
        requeue the remainder at the head of the channel."""
        channel = self.current_channel
        request = self.current
        now = self.sim.now
        executed = now - self._segment_start
        request.remaining_us = max(0.0, request.remaining_us - executed)
        request.preemptions += 1
        self.preemptions += 1
        self.busy_us += executed
        self.device.charge(channel.task, executed)
        channel.running = None
        channel.queue.appendleft(request)
        self.current = None
        self.current_channel = None
        save = self.params.preemption_save_restore_us
        self.sim.schedule_after(save, self._saved, channel, request, now, save)

    def _saved(
        self, channel: Channel, request: Request, preempted_at: float, save: float
    ) -> None:
        self.busy_us += save
        self.switch_us += save
        if self.device.trace.enabled:
            self.device.trace.emit(
                preempted_at, self.trace_source, events.REQUEST_PREEMPTED,
                task=channel.task.name, channel=channel.channel_id,
                ref=request.ref, remaining_us=request.remaining_us,
            )
        self._serve()

    def _retire(self, aborted: bool) -> None:
        channel = self.current_channel
        request = self.current
        now = self.sim.now
        request.finish_time = now
        service = now - self._segment_start
        request.remaining_us = 0.0
        self.busy_us += service
        self.device.charge(channel.task, service)
        if request.kind is not RequestKind.GRAPHICS:
            self._last_nongraphics_end = now
        elif (
            self.params.graphics_penalty_gap_us > 0
            and now - self._last_nongraphics_end
            <= self.params.graphics_competition_window_us
        ):
            # Competing compute work ran recently: the hardware arbiter
            # holds this graphics channel back for a cooldown (the paper's
            # observed non-uniform graphics/compute scheduling).
            channel._graphics_earliest = now + self.params.graphics_penalty_gap_us
        channel.running = None
        self.current = None
        self.current_channel = None
        if not aborted:
            faults = self.device.faults
            if faults is not None:
                stall = faults.arm(
                    fault_points.GPU_REFCOUNTER_STALL, channel.task.name
                )
                if stall is not None and stall.magnitude_us > 0:
                    # The hardware finished (engine time is charged above)
                    # but the counter write — and with it every software
                    # observation of completion — lands late.
                    if self.device.trace.enabled and not self._announced:
                        self._announce(channel, request)
                    self._pending_publications += 1
                    self.sim.schedule_after(
                        stall.magnitude_us,
                        self._publish_stalled, channel, request, service,
                    )
                    return
        self._publish_completion(
            channel, request, service, aborted,
            None if aborted or self._announced else self._segment_start,
        )

    def _publish_stalled(
        self, channel: Channel, request: Request, service: float
    ) -> None:
        self._pending_publications -= 1
        self._publish_completion(channel, request, service, False, None)

    def _publish_completion(
        self,
        channel: Channel,
        request: Request,
        service: float,
        aborted: bool,
        begin_us: Optional[float],
    ) -> None:
        """Make a retired request's completion visible to software: bump
        the reference counter, account it, and trigger waiters.  Runs
        immediately on retirement, or late under a refcounter-stall fault.
        ``begin_us`` is the start of a segment that was not announced."""
        now = self.sim.now
        if aborted:
            request.aborted = True
            # The kill path resets the channel's counters; nothing to do.
        else:
            if not channel.dead:
                channel.complete(request)
            self.completed_requests += 1
            latency_us = now - request.submit_time
            self.device.latencies[channel.task.name].append(latency_us)
        trace = self.device.trace
        if trace.enabled:
            if aborted:
                trace.emit(
                    now, self.trace_source, events.REQUEST_ABORTED,
                    task=channel.task.name, channel=channel.channel_id,
                    ref=request.ref, service_us=service,
                )
            elif begin_us is None:
                trace.emit(
                    now, self.trace_source, events.REQUEST_COMPLETE,
                    task=channel.task.name, channel=channel.channel_id,
                    ref=request.ref, service_us=service, latency_us=latency_us,
                )
            else:
                trace.emit(
                    now, self.trace_source, events.REQUEST_COMPLETE,
                    task=channel.task.name, channel=channel.channel_id,
                    ref=request.ref, service_us=service, latency_us=latency_us,
                    begin_us=begin_us,
                )
        if not request.triggered:
            request.trigger(request)
