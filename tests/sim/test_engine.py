"""Tests for the discrete-event simulator core."""

import math

import pytest

from repro.sim.engine import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_runs_in_time_order(sim):
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo(sim):
    # Handle-free delays share the (time, seq) order of handled ones.
    order = []
    for label in "abcde":
        if label in "bd":
            sim.schedule_after(3.0, order.append, label)
        else:
            sim.schedule(3.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(7.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [7.25]
    assert sim.now == 7.25


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_after(-1.0, lambda: None)


def test_schedule_at_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(1.0, lambda: None)


def test_cancel_prevents_callback(sim):
    fired = []
    handle = sim.schedule(2.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_after_fire_is_noop(sim):
    fired = []
    handle = sim.schedule(2.0, fired.append, "x")
    sim.run()
    handle.cancel()
    assert fired == ["x"]


def test_run_until_stops_clock_exactly(sim):
    sim.schedule(3.0, lambda: None)
    sim.schedule(100.0, lambda: None)
    sim.run(until=50.0)
    assert sim.now == 50.0
    assert sim.pending_events == 1


def test_run_until_is_resumable(sim):
    order = []
    sim.schedule(3.0, order.append, "a")
    sim.schedule(70.0, order.append, "b")
    sim.run(until=50.0)
    assert order == ["a"]
    sim.run(until=100.0)
    assert order == ["a", "b"]


def test_run_until_advances_idle_clock(sim):
    sim.run(until=123.0)
    assert sim.now == 123.0


def test_callbacks_can_schedule_more_work(sim):
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, lambda: order.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]


def test_pending_events_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending_events == 1
    assert not keep.cancelled


def test_run_not_reentrant(sim):
    def nested():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_until_is_the_stop_time_of_the_run_in_progress(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append(sim.until))
    sim.run(until=5.0)
    sim.schedule(1.0, lambda: seen.append(sim.until))
    sim.run()
    sim.schedule(1.0, lambda: seen.append(sim.until))
    sim.step()
    assert seen == [5.0, math.inf, None]
    assert sim.until is None


def test_step_returns_false_when_idle(sim):
    assert sim.step() is False


def test_heap_stays_bounded_under_schedule_cancel_loop(sim):
    # The watchdog/polling pattern: schedule a deadline, cancel it, repeat.
    # Without compaction every cancelled handle lingers until popped.
    for _ in range(10_000):
        sim.schedule(1_000_000.0, lambda: None).cancel()
    assert sim.pending_events == 0
    assert sim.queued_entries <= 2 * sim.COMPACT_MIN_CANCELLED


def test_compaction_preserves_execution_order(sim):
    order = []
    handles = []
    # Interleave live and doomed callbacks, then cancel enough to compact.
    for index in range(200):
        sim.schedule(float(index), order.append, index)
        handles.append(sim.schedule(float(index) + 0.5, order.append, -index))
    for handle in handles:
        handle.cancel()
    assert sim.queued_entries < 300  # compaction ran
    sim.run()
    assert order == list(range(200))


def test_pending_events_constant_time_accounting(sim):
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert sim.pending_events == 10
    handles[3].cancel()
    handles[7].cancel()
    assert sim.pending_events == 8
    handles[3].cancel()  # double-cancel must not double-count
    assert sim.pending_events == 8
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_count(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    handle.cancel()  # already fired: no effect on heap accounting
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_independent_simulators_do_not_interact():
    sim_a = Simulator()
    sim_b = Simulator()
    sim_a.schedule(5.0, lambda: None)
    sim_b.run()
    assert sim_b.now == 0.0
    assert sim_a.pending_events == 1
