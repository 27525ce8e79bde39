"""Event-queue semantics under both ways of booking an entry.

Every case runs twice: ``heap`` books entries by relative delay
(``Simulator.schedule``), ``calendar`` books them at an absolute clock time
(``Simulator.schedule_at``), the way an appointment goes on a date.  Both
land in the simulator's one event heap and must behave identically.
"""

import pytest

from repro.sim.engine import Simulator


def _by_delay(sim, when, fn, *args):
    return sim.schedule(when - sim.now, fn, *args)


def _by_time(sim, when, fn, *args):
    return sim.schedule_at(when, fn, *args)


BOOKINGS = {"heap": _by_delay, "calendar": _by_time}


@pytest.mark.parametrize("booking", BOOKINGS)
def test_cancel_inside_callback_suppresses_same_instant_entry(booking):
    book = BOOKINGS[booking]
    sim = Simulator()
    fired = []
    # FIFO tie-break: a same-instant canceller scheduled *after* the
    # victim runs too late; one scheduled *before* it must suppress it.
    victim = book(sim, 5.0, fired.append, "victim")
    book(sim, 5.0, victim.cancel)
    sim.run()
    assert fired == ["victim"]  # canceller ran after the victim

    sim = Simulator()
    fired = []
    holder = {}
    book(sim, 5.0, lambda: holder["victim"].cancel())
    holder["victim"] = book(sim, 5.0, fired.append, "victim")
    sim.run()
    assert fired == []  # canceller ran first


@pytest.mark.parametrize("booking", BOOKINGS)
def test_compaction_bounds_queue_growth(booking):
    book = BOOKINGS[booking]
    sim = Simulator()
    for _ in range(5_000):
        book(sim, 1_000.0, lambda: None).cancel()
    assert sim.pending_events == 0
    assert sim.queued_entries <= 2 * Simulator.COMPACT_MIN_CANCELLED


@pytest.mark.parametrize("booking", BOOKINGS)
def test_run_until_leaves_future_entries_queued(booking):
    book = BOOKINGS[booking]
    sim = Simulator()
    fired = []
    book(sim, 10.0, fired.append, "early")
    book(sim, 99.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 99.0
