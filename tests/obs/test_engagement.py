"""The live engagement ledger and the clock it shares with trace replays."""

from repro.obs.engagement import EngagementLedger


def test_ledger_integrates_channel_time_per_task():
    ledger = EngagementLedger()
    ledger.track(1, "a", False, 0.0)
    ledger.track(2, "a", True, 10.0)
    ledger.track(3, "b", False, 10.0)
    ledger.set_state(1, True, 20.0)
    ledger.set_state(1, True, 25.0)  # no change: nothing settles
    ledger.set_state(9, True, 25.0)  # unknown channel: ignored
    mid = ledger.snapshot(30.0)
    # Snapshots settle running clocks into the result only.
    assert ledger.snapshot(30.0) == mid
    assert mid == {
        "a": {"engaged_us": 10.0 + 20.0, "disengaged_us": 20.0},
        "b": {"engaged_us": 0.0, "disengaged_us": 20.0},
    }


def test_untrack_stops_the_clock_and_keeps_its_time():
    ledger = EngagementLedger()
    ledger.track(1, "a", True, 0.0)
    ledger.untrack(1, 40.0)
    ledger.set_state(1, False, 50.0)  # after untrack: ignored
    ledger.untrack(1, 60.0)
    assert ledger.snapshot(100.0) == {
        "a": {"engaged_us": 40.0, "disengaged_us": 0.0},
    }
