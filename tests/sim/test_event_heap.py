"""Kernel tests for the simulator's event heap.

The simulator pops scheduled callbacks in the total order ``(time, seq)``.
These tests pin that order under seeded random schedule/cancel programs
(golden firing-log digests), and exercise the cases the inlined push/pop
sites must get right: same-instant ties, cancellation from inside
callbacks, compaction while ``run()`` holds the heap, ``run(until)``, and
``step()``.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.sim.engine import Simulator


def _random_program(sim: Simulator, seed: int, n: int = 300):
    """Load a deterministic pseudo-random schedule/cancel program.

    Callbacks fire, log ``(now, index)``, and — steered by a pre-drawn
    table — spawn zero-delay work, spawn delayed work, or cancel the
    oldest still-pending handle.  Returns the (growing) firing log.
    """
    rng = np.random.default_rng(seed)
    delays = np.round(rng.uniform(0.0, 50.0, n), 1)  # coarse → many ties
    delays[rng.random(n) < 0.2] = 0.0
    modes = rng.integers(0, 4, size=4 * n)
    spawn_limit = 4 * n

    log = []
    handles = {}
    counter = itertools.count(n)

    def make_callback(index):
        def callback():
            log.append((sim.now, index))
            handles.pop(index, None)
            mode = modes[index % len(modes)]
            if mode == 0:
                child = next(counter)
                if child < spawn_limit:
                    handles[child] = sim.schedule(0.0, make_callback(child))
            elif mode == 1:
                child = next(counter)
                if child < spawn_limit:
                    handles[child] = sim.schedule(
                        float(delays[child % n]), make_callback(child)
                    )
            elif mode == 2 and handles:
                oldest = min(handles)
                handles.pop(oldest).cancel()

        return callback

    for index in range(n):
        handles[index] = sim.schedule(float(delays[index]), make_callback(index))
    for index in range(0, n, 7):  # up-front cancellations
        handle = handles.pop(index, None)
        if handle is not None:
            handle.cancel()
    return log


def _digest(log) -> str:
    digest = hashlib.sha256()
    for now, index in log:
        digest.update(f"{now!r}:{index};".encode())
    return digest.hexdigest()[:16]


#: seed -> ((now, pending, fired) after run(until=40), the same after the
#: final run(), firing-log digest).  Captured from the simulator before the
#: single heap became its only event queue.
GOLDEN = {
    0: ((40.0, 56, 285), (126.49999999999999, 0, 379), "74b1847b8c10e38d"),
    1: ((40.0, 49, 280), (99.2, 0, 342), "2285f8da97c94519"),
    2: ((40.0, 32, 272), (92.2, 0, 308), "7253d6e4f97af46b"),
    3: ((40.0, 33, 287), (73.3, 0, 327), "f590ccc3d3ed9da7"),
    4: ((40.0, 47, 268), (151.2, 0, 343), "8cd56ce0176597cf"),
    5: ((40.0, 45, 296), (95.1, 0, 362), "8a6b507eea7f2f97"),
    6: ((40.0, 51, 297), (95.1, 0, 355), "82f168ff4be1fd33"),
    7: ((40.0, 62, 279), (117.4, 0, 367), "cd1a1f2bb5e52532"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_random_program_matches_golden_digest(seed):
    sim = Simulator()
    log = _random_program(sim, seed)
    sim.run(until=40.0)  # leave some events pending past the limit
    mid = (sim.now, sim.pending_events, len(log))
    sim.run()
    end = (sim.now, sim.pending_events, len(log))
    assert (mid, end, _digest(log)) == GOLDEN[seed]


@pytest.mark.parametrize("seed", range(3))
def test_step_agrees_with_run(seed):
    by_run = Simulator()
    run_log = _random_program(by_run, seed)
    by_run.run()

    by_step = Simulator()
    step_log = _random_program(by_step, seed)
    steps = 0
    while by_step.step():
        steps += 1
    assert step_log == run_log
    assert steps == len(step_log)
    assert (by_step.now, by_step.pending_events, by_step.queued_entries) == (
        by_run.now, by_run.pending_events, by_run.queued_entries,
    )
    assert by_step.step() is False


def test_zero_delay_chains_are_fifo():
    sim = Simulator()
    order = []

    def chain(label, depth=0):
        order.append(label)
        if depth < 3:
            sim.schedule(0.0, chain, f"{label}.{depth}", depth + 1)

    sim.schedule(1.0, chain, "a")
    sim.schedule(1.0, chain, "b")
    sim.run()
    assert order == [
        "a", "b",
        "a.0", "b.0", "a.0.1", "b.0.1", "a.0.1.2", "b.0.1.2",
    ]


def test_tiny_delay_rounding_to_now_keeps_fifo_order():
    # 1e6 + 1e-12 == 1e6: a positive delay that lands on the current
    # instant must still fire after the same-instant entries before it.
    sim = Simulator()
    order = []

    def at_instant():
        sim.schedule(0.0, order.append, "first")
        sim.schedule(1e-12, order.append, "second")
        sim.schedule(0.0, order.append, "third")

    sim.schedule(1e6, at_instant)
    sim.run()
    assert order == ["first", "second", "third"]
    assert sim.now == 1e6




def test_compaction_inside_run_keeps_pop_order_and_counts():
    # run() holds the heap list in a local, so compaction triggered from a
    # callback must rewrite that very list: entries pushed afterwards have
    # to fire, in order, and the live/stored counts must stay exact.
    sim = Simulator()
    fired = []
    doomed = [sim.schedule(500.0 + i, fired.append, "doomed") for i in range(200)]
    for delay in (30.0, 10.0, 20.0):
        sim.schedule(delay, fired.append, delay)
    observed = {}

    def churn():
        before = sim.queued_entries
        for handle in doomed:
            handle.cancel()
        observed["shrunk"] = sim.queued_entries < before
        observed["pending"] = sim.pending_events
        sim.schedule(1.0, fired.append, "after")  # t = 6
        sim.schedule(0.0, fired.append, "now")  # t = 5, same instant

    sim.schedule(5.0, churn)
    sim.run(until=15.0)
    assert observed == {"shrunk": True, "pending": 3}
    assert fired == ["now", "after", 10.0]
    assert sim.pending_events == 2
    assert sim.queued_entries < 2 * Simulator.COMPACT_MIN_CANCELLED
    sim.run()
    assert fired == ["now", "after", 10.0, 20.0, 30.0]
    assert (sim.now, sim.pending_events, sim.queued_entries) == (30.0, 0, 0)
