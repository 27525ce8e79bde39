"""Tests for the kernel polling service."""

from repro.gpu.request import Request, RequestKind
from repro.osmodel.costs import CostParams
from repro.osmodel.polling import PollingService
from repro.osmodel.task import Task


def _make_channel(sim):
    from repro.gpu.device import GpuDevice

    device = GpuDevice(sim)
    task = Task("t", 1)
    context = device.create_context(task)
    return device, device.create_channel(context, RequestKind.COMPUTE)


def test_watch_fires_at_polling_granularity(sim):
    device, channel = _make_channel(sim)
    costs = CostParams()
    polling = PollingService(sim, costs)
    request = Request(RequestKind.COMPUTE, 100.0)
    device.submit(channel, request)
    observed = []
    polling.watch(channel, 1, lambda ch: observed.append(sim.now))
    sim.run(until=5_000.0)
    assert len(observed) == 1
    # The request finished at 100 but polling only notices at the next
    # 1 ms pass — the paper's completion-detection granularity.
    assert observed[0] >= 100.0
    assert observed[0] <= 100.0 + costs.poll_interval_us + 1.0


def test_prompt_triggers_immediate_pass(sim):
    device, channel = _make_channel(sim)
    costs = CostParams()
    polling = PollingService(sim, costs)
    request = Request(RequestKind.COMPUTE, 10.0)
    device.submit(channel, request)
    observed = []
    polling.watch(channel, 1, lambda ch: observed.append(sim.now))
    sim.schedule(50.0, polling.prompt)
    sim.run(until=400.0)
    assert observed and observed[0] < 60.0


def test_watch_already_satisfied_fires_next_pass(sim):
    device, channel = _make_channel(sim)
    polling = PollingService(sim, CostParams())
    request = Request(RequestKind.COMPUTE, 5.0)
    device.submit(channel, request)
    sim.run(until=50.0)  # request already done, no watch yet
    observed = []
    polling.watch(channel, 1, lambda ch: observed.append(sim.now))
    sim.run(until=3_000.0)
    assert len(observed) == 1


def test_cancel_prevents_callback(sim):
    device, channel = _make_channel(sim)
    polling = PollingService(sim, CostParams())
    request = Request(RequestKind.COMPUTE, 5.0)
    device.submit(channel, request)
    observed = []
    watch_id = polling.watch(channel, 1, lambda ch: observed.append(1))
    polling.cancel(watch_id)
    sim.run(until=3_000.0)
    assert observed == []


def test_unsatisfied_watch_keeps_waiting(sim):
    device, channel = _make_channel(sim)
    polling = PollingService(sim, CostParams())
    observed = []
    polling.watch(channel, 5, lambda ch: observed.append(1))
    sim.run(until=10_000.0)
    assert observed == []
    assert polling.watch_count == 1


def test_cpu_accounting_grows_with_watches(sim):
    device, channel = _make_channel(sim)
    costs = CostParams()
    polling = PollingService(sim, costs)
    polling.watch(channel, 99, lambda ch: None)
    sim.run(until=10_000.0)
    assert polling.passes >= 9
    assert polling.cpu_us > 0


# ----------------------------------------------------------------------
# Watch-id scoping (regression: ids were once a module-level counter)
# ----------------------------------------------------------------------

def test_fresh_services_assign_identical_watch_ids(sim):
    device, channel = _make_channel(sim)
    costs = CostParams()
    first = PollingService(sim, costs)
    second = PollingService(sim, costs)
    ids_first = [first.watch(channel, 10, lambda ch: None) for _ in range(3)]
    ids_second = [second.watch(channel, 10, lambda ch: None) for _ in range(3)]
    # A module-global counter would interleave the two id spaces; each
    # fresh service must start from 1 so trajectories are reproducible.
    assert ids_first == [1, 2, 3]
    assert ids_second == [1, 2, 3]


# ----------------------------------------------------------------------
# Cancel-during-pass (regression: fired watches were popped en masse
# before callbacks, so a callback's cancel() missed them and the stale
# callback still ran)
# ----------------------------------------------------------------------

def test_callback_cancelling_sibling_watch_suppresses_it(sim):
    device, channel = _make_channel(sim)
    polling = PollingService(sim, CostParams())
    request = Request(RequestKind.COMPUTE, 5.0)
    device.submit(channel, request)
    observed = []
    ids = {}

    def callback_a(ch):
        observed.append("a")
        polling.cancel(ids["b"])

    ids["a"] = polling.watch(channel, 1, callback_a)
    ids["b"] = polling.watch(channel, 1, lambda ch: observed.append("b"))
    sim.run(until=3_000.0)
    # Both watches are satisfied by the same pass; A fires first
    # (registration order) and cancels B mid-pass — B must not fire.
    assert observed == ["a"]
    assert polling.watch_count == 0


def test_callback_cancelling_already_fired_watch_is_noop(sim):
    device, channel = _make_channel(sim)
    polling = PollingService(sim, CostParams())
    request = Request(RequestKind.COMPUTE, 5.0)
    device.submit(channel, request)
    observed = []
    ids = {}
    ids["a"] = polling.watch(channel, 1, lambda ch: observed.append("a"))

    def callback_b(ch):
        observed.append("b")
        polling.cancel(ids["a"])  # already fired: harmless

    ids["b"] = polling.watch(channel, 1, callback_b)
    sim.run(until=3_000.0)
    assert observed == ["a", "b"]


# ----------------------------------------------------------------------
# Dirty-set slotting: equivalence with the full scan, and quiescence
# ----------------------------------------------------------------------

class _FakeChannel:
    """Minimal stand-in exposing what a watch reads."""

    def __init__(self, index):
        self.index = index
        self.refcounter = 0
        self._pollers = []

    def bump(self, amount):
        self.refcounter += amount
        for poller in self._pollers:
            poller.mark_dirty(self)


class _FullScanReference:
    """The pre-dirty-set semantics: scan everything, every pass."""

    def __init__(self):
        import itertools

        self._ids = itertools.count(1)
        self._watches = {}

    def watch(self, channel, target_ref, callback):
        watch_id = next(self._ids)
        self._watches[watch_id] = (channel, target_ref, callback, [False])
        return watch_id

    def cancel(self, watch_id):
        entry = self._watches.pop(watch_id, None)
        if entry is not None:
            entry[3][0] = True

    def do_pass(self):
        fired = [
            (watch_id, entry)
            for watch_id, entry in self._watches.items()
            if not entry[3][0] and entry[0].refcounter >= entry[1]
        ]
        for watch_id, _entry in fired:
            self._watches.pop(watch_id, None)
        for _watch_id, (channel, _target, callback, _flag) in fired:
            callback(channel)


def test_dirty_set_matches_full_scan_on_random_traces(sim):
    import numpy as np

    rng = np.random.default_rng(1234)
    for _trial in range(20):
        channels = [_FakeChannel(i) for i in range(5)]
        service = PollingService(sim, CostParams())
        reference = _FullScanReference()
        fired_service, fired_reference = [], []
        live_ids = []
        for _step in range(120):
            op = rng.integers(0, 10)
            if op < 4:  # bump a channel's refcounter
                channels[int(rng.integers(0, 5))].bump(int(rng.integers(1, 3)))
            elif op < 7:  # register a watch
                channel = channels[int(rng.integers(0, 5))]
                target = channel.refcounter + int(rng.integers(-1, 4))
                watch_id = service.watch(
                    channel, target,
                    lambda ch, i=channel.index: fired_service.append(i),
                )
                ref_id = reference.watch(
                    channel, target,
                    lambda ch, i=channel.index: fired_reference.append(i),
                )
                assert watch_id == ref_id
                live_ids.append(watch_id)
            elif op < 8 and live_ids:  # cancel one
                victim = live_ids.pop(int(rng.integers(0, len(live_ids))))
                service.cancel(victim)
                reference.cancel(victim)
            else:  # polling pass
                service._pass()
                reference.do_pass()
                assert fired_service == fired_reference
        service._pass()
        reference.do_pass()
        assert fired_service == fired_reference
        assert service.watch_count == len(reference._watches)


def test_quiescent_channels_cost_no_host_work_but_full_modeled_cost(sim):
    costs = CostParams()
    service = PollingService(sim, CostParams())
    channel = _FakeChannel(0)
    service.watch(channel, 99, lambda ch: None)
    service._pass()  # consumes the registration dirtiness
    assert not service._dirty
    before = service.cpu_us
    service._pass()  # channel quiescent: early return...
    # ...but the *modeled* kernel thread still reads every watched
    # counter — the simulated cost must not shrink with the fast path.
    assert service.cpu_us == before + costs.poll_check_us * 1
