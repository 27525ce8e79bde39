"""Tests for generator-based processes."""

import pytest

from repro.sim.events import AnyOf
from repro.sim.process import ProcessCrashed, ProcessKilled


def callbacks(event):
    return len(event._callbacks)


def test_timeout_yields_resume_later(sim):
    log = []

    def body():
        log.append(sim.now)
        yield 5.0
        log.append(sim.now)

    sim.spawn(body())
    sim.run()
    assert log == [0.0, 5.0]


def test_event_yield_receives_trigger_value(sim):
    event = sim.event()
    got = []

    def body():
        value = yield event
        got.append(value)

    sim.spawn(body())
    sim.schedule(3.0, event.trigger, "payload")
    sim.run()
    assert got == ["payload"]


def test_join_returns_child_value(sim):
    def child():
        yield 2.0
        return "result"

    got = []

    def parent():
        value = yield sim.spawn(child())
        got.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert got == [(2.0, "result")]


def test_join_already_finished_process(sim):
    def child():
        yield 1.0
        return 7

    child_proc = sim.spawn(child())

    def parent():
        yield 10.0
        value = yield child_proc
        return value

    parent_proc = sim.spawn(parent())
    sim.run()
    assert parent_proc.return_value == 7


def test_anyof_yield_returns_winner(sim):
    a, b = sim.event(), sim.event()
    got = []

    def body():
        winner = yield AnyOf(sim, [a, b])
        got.append(winner)

    sim.spawn(body())
    sim.schedule(1.0, b.trigger)
    sim.run()
    assert got == [b]


def test_kill_terminates_process(sim):
    progressed = []

    def body():
        yield 100.0
        progressed.append(True)

    process = sim.spawn(body())
    sim.schedule(5.0, process.kill)
    sim.run()
    assert progressed == []
    assert process.killed
    assert not process.alive


def test_kill_reason_reaches_generator(sim):
    reasons = []

    def body():
        try:
            yield 100.0
        except ProcessKilled as exc:
            reasons.append(exc.reason)
            raise

    process = sim.spawn(body())
    sim.schedule(1.0, process.kill, "testing")
    sim.run()
    assert reasons == ["testing"]
    assert process.killed


def test_generator_may_survive_kill_by_catching(sim):
    log = []

    def body():
        try:
            yield 100.0
        except ProcessKilled:
            log.append("caught")
        yield 5.0
        log.append("continued")

    process = sim.spawn(body())
    sim.schedule(1.0, process.kill)
    sim.run()
    assert log == ["caught", "continued"]
    assert process.alive is False
    assert process.killed is False  # it ran to normal completion


def test_kill_before_first_step(sim):
    log = []

    def body():
        log.append("ran")
        yield 1.0

    process = sim.spawn(body())
    process.kill()
    sim.run()
    assert process.killed


def test_kill_finished_process_is_noop(sim):
    def body():
        yield 1.0
        return "done"

    process = sim.spawn(body())
    sim.run()
    process.kill()
    assert not process.killed
    assert process.return_value == "done"


def test_done_event_fires_with_return_value(sim):
    def body():
        yield 1.0
        return 99

    process = sim.spawn(body())
    values = []
    process.done.add_callback(lambda ev: values.append(ev.value))
    sim.run()
    assert values == [99]


def test_unsupported_yield_raises_type_error(sim):
    def body():
        yield "nonsense"

    sim.spawn(body())
    with pytest.raises(TypeError):
        sim.run()


def test_stale_timer_does_not_resume_killed_process(sim):
    log = []

    def body():
        try:
            yield 10.0
        except ProcessKilled:
            log.append("killed")
            raise
        log.append("resumed")

    process = sim.spawn(body())
    sim.schedule(5.0, process.kill)
    sim.run(until=6.0)
    assert log == ["killed"]
    # A sleep has no handle, so the kill does not withdraw it: the wake
    # stays queued, and counted as pending, until its time comes.
    assert sim.pending_events == 1
    seq = sim._seq
    sim.run()
    # It fires as a no-op: no resume, and no new heap entry.
    assert log == ["killed"]
    assert (sim.now, sim._seq, sim.pending_events) == (10.0, seq, 0)


def test_kill_while_waiting_on_event_leaves_no_stale_callback(sim):
    event = sim.event()

    def body():
        yield event

    process = sim.spawn(body())
    sim.schedule(5.0, process.kill)
    sim.run()
    assert process.killed
    assert callbacks(event) == 0
    # The long-lived event can still trigger without scheduling dead wakeups.
    before = sim.pending_events
    event.trigger("late")
    assert sim.pending_events == before


def test_repeated_kill_while_waiting_does_not_accumulate_callbacks(sim):
    # The long-running, kill-heavy pattern: many short-lived waiters on
    # one long-lived event.  Each kill must fully withdraw its waiter.
    event = sim.event()

    def waiter():
        yield event

    def killer():
        for _ in range(50):
            victim = sim.spawn(waiter())
            yield 1.0
            victim.kill()
        yield 1.0

    sim.spawn(killer())
    sim.run()
    assert callbacks(event) == 0


def test_kill_while_waiting_on_anyof_detaches_members_and_proxy(sim):
    a, b = sim.event(), sim.event()
    condition = AnyOf(sim, [a, b])

    def body():
        yield condition

    process = sim.spawn(body())
    sim.schedule(5.0, process.kill)
    sim.run()
    assert process.killed
    assert callbacks(a) == 0
    assert callbacks(b) == 0
    assert callbacks(condition.proxy) == 0
    # Members triggering later must not fire the proxy or wake anything.
    a.trigger()
    sim.run()
    assert not condition.proxy.triggered


def test_anyof_winner_detaches_losing_members(sim):
    a, b, c = sim.event(), sim.event(), sim.event()

    def body():
        yield AnyOf(sim, [a, b, c])

    sim.spawn(body())
    sim.schedule(1.0, b.trigger)
    sim.run()
    assert callbacks(a) == 0
    assert callbacks(c) == 0


def test_kill_while_joining_removes_done_callback(sim):
    def sleeper():
        yield 100.0

    child = sim.spawn(sleeper())

    def parent():
        yield child

    process = sim.spawn(parent())
    sim.schedule(5.0, process.kill)
    sim.run(until=50.0)
    assert process.killed
    assert callbacks(child.done) == 0


def test_generator_exception_chains_process_name_and_time(sim):
    def body():
        yield 7.5
        raise ValueError("boom")

    process = sim.spawn(body(), name="crasher")
    with pytest.raises(ProcessCrashed) as excinfo:
        sim.run()
    assert excinfo.value.process_name == "crasher"
    assert excinfo.value.at_us == 7.5
    assert "crasher" in str(excinfo.value)
    assert "7.5" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert not process.alive


def test_crashed_process_is_dead_but_not_killed(sim):
    def body():
        yield 1.0
        raise RuntimeError("bug")

    process = sim.spawn(body())
    with pytest.raises(ProcessCrashed):
        sim.run()
    assert not process.alive
    assert not process.killed


def test_two_processes_interleave(sim):
    log = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            log.append((name, sim.now))

    sim.spawn(ticker("fast", 1.0))
    sim.spawn(ticker("slow", 2.5))
    sim.run()
    assert log == [
        ("fast", 1.0),
        ("fast", 2.0),
        ("slow", 2.5),
        ("fast", 3.0),
        ("slow", 5.0),
        ("slow", 7.5),
    ]
