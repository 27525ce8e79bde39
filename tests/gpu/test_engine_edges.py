"""Edge-case tests for the execution engine."""

import math

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.osmodel.task import Task

from tests.gpu.conftest import submit


def test_kill_while_switching_contexts(sim, device, make_channel):
    """A context that dies during the switch toward it must not be served."""
    _, context_a, channel_a = make_channel("a")
    _, context_b, channel_b = make_channel("b")
    submit(device, channel_a, 10.0)
    victim = submit(device, channel_b, 10.0)
    # Kill b exactly while the engine is paying the a->b switch cost.
    sim.schedule(11.0, device.kill_context, context_b)
    sim.run()
    assert victim.aborted
    assert device.main_engine.idle


def test_notify_while_busy_is_harmless(sim, device, make_channel):
    _, _, channel = make_channel()
    submit(device, channel, 100.0)
    for delay in (10.0, 20.0, 30.0):
        sim.schedule(delay, device.main_engine.notify)
    sim.run()
    assert channel.refcounter == 1


def test_graphics_penalty_expires_without_competition(sim, device, make_channel):
    """Once compute goes quiet for the competition window, graphics runs
    at full rate again."""
    _, _, compute = make_channel("c", RequestKind.COMPUTE)
    _, _, graphics = make_channel("g", RequestKind.GRAPHICS)
    submit(device, compute, 10.0)  # one compute request, then silence

    def feeder():
        for _ in range(50):
            request = Request(RequestKind.GRAPHICS, 10.0)
            device.submit(graphics, request)
            yield request.completion

    sim.spawn(feeder())
    sim.run()
    window = device.params.graphics_competition_window_us
    # After the window, the remaining ~40 requests run back-to-back: the
    # total time is far below 50 full penalty gaps.
    assert sim.now < window + 45 * 12.0 + 10 * device.params.graphics_penalty_gap_us


def test_copy_engine_unaffected_by_main_engine_kill(sim, device, make_channel):
    task_a, context_a, compute = make_channel("a")
    task_b, context_b, _ = make_channel("b")
    dma = device.create_channel(context_b, RequestKind.DMA)
    submit(device, compute, math.inf)
    transfer = submit(device, dma, 500.0)
    sim.schedule(100.0, device.kill_context, context_a)
    sim.run()
    assert transfer.finish_time == 500.0
    assert not transfer.aborted


def test_cursor_survives_channel_removal(sim, device, make_channel):
    channels = [make_channel(f"t{i}")[2] for i in range(4)]
    for channel in channels:
        submit(device, channel, 10.0)
    sim.run()
    # Remove two channels, then keep scheduling on the rest.
    device.kill_context(channels[1].context)
    device.kill_context(channels[3].context)
    late_a = submit(device, channels[0], 10.0)
    late_b = submit(device, channels[2], 10.0)
    sim.run()
    assert late_a.finish_time is not None
    assert late_b.finish_time is not None


def test_zero_size_request_completes_instantly(sim, device, make_channel):
    _, _, channel = make_channel()
    request = submit(device, channel, 0.0)
    sim.run()
    assert request.finish_time == request.start_time
    assert channel.refcounter == 1


def test_busy_accounting_conserves_time(sim, device, make_channel):
    """Engine busy time equals service + switching, never exceeding the
    wall clock."""
    _, _, channel_a = make_channel("a")
    _, _, channel_b = make_channel("b")
    for _ in range(5):
        submit(device, channel_a, 20.0)
        submit(device, channel_b, 30.0)
    sim.run()
    engine = device.main_engine
    service = 5 * 20.0 + 5 * 30.0
    assert engine.busy_us == service + engine.switch_us
    assert engine.busy_us <= sim.now + 1e-9


# ----------------------------------------------------------------------
# Same-instant ordering at the engine's wait points
# ----------------------------------------------------------------------
def _cooling_graphics(sim, device, make_channel):
    """Serve one compute and one graphics request, leaving a second
    graphics request held back by the arbitration cooldown.

    Compute runs 0-10, the context switch 10-14, graphics 14-24; the
    penalty then blocks the graphics channel until 24 + 55 = 79, so the
    engine waits on its cooldown timer (armed at 24, firing at 79).
    """
    _, _, compute = make_channel("c", RequestKind.COMPUTE)
    _, _, graphics = make_channel("g", RequestKind.GRAPHICS)
    submit(device, compute, 10.0)
    submit(device, graphics, 10.0)
    held = submit(device, graphics, 10.0)
    return compute, held


@pytest.mark.parametrize(
    "when, wakeups, late_start, held_start",
    [
        # Each case submits a compute request at 79, the instant the
        # cooldown ends.  Served first, it starts after the 4 us context
        # switch, and the held graphics request after it and another
        # switch (83 + 10 + 4); served second, it waits for graphics.
        #
        # Scheduled before the cooldown timer was armed: wakes the engine,
        # which cancels the timer.
        ("before-timer", 1, 83.0, 97.0),
        # After the timer fired: the engine is already serving graphics.
        ("after-timer", 0, 93.0, 79.0),
    ],
)
def test_notify_at_the_instant_the_cooldown_ends(
    sim, device, make_channel, when, wakeups, late_start, held_start
):
    compute, held = _cooling_graphics(sim, device, make_channel)
    late = Request(RequestKind.COMPUTE, 10.0)
    if when == "before-timer":
        sim.schedule(79.0, device.submit, compute, late)
    else:
        # Scheduled at 50, after the timer was armed, so it pops after it.
        sim.schedule(50.0, sim.schedule, 29.0, device.submit, compute, late)
    sim.run()
    assert device.main_engine.wakeups == wakeups
    assert (late.start_time, held.start_time) == (late_start, held_start)
    assert late.finish_time == late_start + 10.0
    assert held.finish_time == held_start + 10.0


def test_kill_settles_after_the_cleanup_is_queued(sim, device, make_channel):
    """A kill aborts the running request one hop later, after it has
    marked the context's channels dead and injected the cleanup stall.
    So the engine never turns to the dying context's other channel: it
    pays the cleanup, then one context switch to the survivor."""
    task, context, running_channel = make_channel("doomed")
    queued_channel = device.create_channel(context, RequestKind.COMPUTE)
    _, _, survivor_channel = make_channel("survivor")
    submit(device, running_channel, 100.0)
    doomed = submit(device, queued_channel, 10.0)
    survivor = submit(device, survivor_channel, 10.0)
    sim.schedule(50.0, device.kill_context, context)
    sim.run()
    params = device.params
    assert doomed.start_time is None
    assert survivor.start_time == (
        50.0 + params.context_cleanup_us + params.context_switch_us
    )
    assert device.main_engine.switch_us == params.context_switch_us


@pytest.fixture
def preemptive_device(sim):
    params = GpuParams()
    params.preemption_supported = True
    return GpuDevice(sim, params)


@pytest.mark.parametrize("action", ["abort", "preempt"])
def test_settle_after_the_completion_timer_fired_is_refused(
    sim, preemptive_device, action
):
    """Once the completion timer has fired, the request is retired:
    aborting or preempting it must be refused, and it completes
    normally."""
    device = preemptive_device
    task = Task("t", next(sim.id_counter("task")))
    context = device.create_context(task)
    channel = device.create_channel(context, RequestKind.COMPUTE)
    request = submit(device, channel, 100.0)
    engine = device.main_engine
    answers = []

    def settle():
        assert request.finish_time == 100.0
        assert engine.current is None
        if action == "abort":
            answers.append(engine.abort_current(context))
        else:
            answers.append(engine.preempt_current(context))

    # Scheduled at 50 for 100: pops right after the completion timer.
    sim.schedule(50.0, sim.schedule, 50.0, settle)
    sim.run()
    assert answers == [False]
    assert request.finish_time == 100.0
    assert not request.aborted
    assert request.preemptions == 0
    assert channel.refcounter == 1
    assert engine.preemptions == 0
    assert device.task_usage(task) == 100.0


@pytest.mark.parametrize("action", ["abort", "preempt"])
def test_settle_just_before_the_completion_timer_wins(
    sim, preemptive_device, action
):
    device = preemptive_device
    task = Task("t", next(sim.id_counter("task")))
    context = device.create_context(task)
    channel = device.create_channel(context, RequestKind.COMPUTE)
    request = submit(device, channel, 100.0)
    engine = device.main_engine
    answers = []

    def settle():
        if action == "abort":
            answers.append(engine.abort_current(context))
            # A second settle before the outcome is handled is refused.
            answers.append(engine.abort_current(context))
        else:
            answers.append(engine.preempt_current(context))
            answers.append(engine.preempt_current(context))

    # Scheduled before the request started: pops ahead of its timer.
    sim.schedule(100.0, settle)
    sim.run()
    assert answers == [True, False]
    if action == "abort":
        assert request.aborted
        assert channel.refcounter == 0
    else:
        save = device.params.preemption_save_restore_us
        assert engine.preemptions == 1
        assert request.preemptions == 1
        assert request.remaining_us == 0.0
        # Save, restore, then the empty remainder completes at once.
        assert request.finish_time == 100.0 + 2 * save
        assert channel.refcounter == 1


@pytest.mark.parametrize("action", ["abort", "preempt"])
def test_stale_completion_timer_of_a_settled_request_does_nothing(
    sim, preemptive_device, action
):
    """Aborting request A (through a context kill) or preempting it leaves
    its completion timer queued.  When it fires, B is running: B must
    finish at its own time, and the stale timer must push nothing."""
    device = preemptive_device
    engine = device.main_engine
    channels = []
    for name in ("a", "b"):
        task = Task(name, next(sim.id_counter("task")))
        context = device.create_context(task)
        channels.append(device.create_channel(context, RequestKind.COMPUTE))
    first = submit(device, channels[0], 400.0)
    second = submit(device, channels[1], 500.0)
    seen = []

    def probe():
        seen.append((sim._seq, engine.current))

    # Both probes pop at 400, A's original completion time: the first
    # ahead of A's timer (scheduled before A started), the second after.
    sim.schedule(400.0, probe)
    sim.schedule(200.0, sim.schedule, 200.0, probe)
    if action == "abort":
        sim.schedule(10.0, device.kill_context, channels[0].context)
    else:
        sim.schedule(10.0, engine.preempt_current, channels[0].context)
    sim.run()
    assert seen == [(seen[0][0], second)] * 2
    assert second.start_time < 400.0
    assert second.finish_time == second.start_time + 500.0
    if action == "abort":
        assert first.aborted
        assert first.finish_time == 10.0
        assert engine.completed_requests == 1
    else:
        # A resumes after B: switch back, restore, then its remaining 390.
        params = device.params
        assert first.finish_time == (
            second.finish_time + params.context_switch_us
            + params.preemption_save_restore_us + 390.0
        )
        assert engine.completed_requests == 2
