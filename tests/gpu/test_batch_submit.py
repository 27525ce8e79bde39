"""Batched request submission: one engine wake per burst."""

from repro.gpu.request import Request, RequestKind
from repro.osmodel.costs import CostParams
from repro.osmodel.kernel import Kernel


def _burst(channel, count, size_us=10.0):
    return [Request(channel.kind, size_us, False) for _ in range(count)]


def test_batch_coalesces_into_single_wake(sim, device, make_channel):
    _task, _context, channel = make_channel()
    sim.run(until=1.0)  # let the idle engine park on its wake event
    requests = _burst(channel, 8)
    completions = device.submit_batch(channel, requests)
    wakes_before_run = device.main_engine.wakeups
    sim.run(until=1_000.0)
    assert wakes_before_run == 1  # eight enqueues, one wake event
    assert all(event.triggered for event in completions)
    assert channel.refcounter == channel.last_submitted_ref == 8


def test_batch_completions_in_submission_order(sim, device, make_channel):
    _task, _context, channel = make_channel()
    requests = _burst(channel, 5)
    completed = []
    completions = device.submit_batch(channel, requests)
    for index, event in enumerate(completions):
        event.add_callback(lambda _event, i=index: completed.append(i))
    sim.run(until=1_000.0)
    assert completed == [0, 1, 2, 3, 4]


def test_empty_batch_is_a_noop(sim, device, make_channel):
    _task, _context, channel = make_channel()
    assert device.submit_batch(channel, []) == []
    sim.run(until=100.0)
    assert channel.last_submitted_ref == 0


def test_single_submits_wake_once_per_idle_period(sim, device, make_channel):
    # The coalescing the batch path relies on: notify() is idempotent
    # within one idle period, so even unbatched back-to-back submits at
    # one instant fire a single wake.
    _task, _context, channel = make_channel()
    sim.run(until=1.0)

    def submit_two():
        device.submit(channel, Request(channel.kind, 10.0, False))
        device.submit(channel, Request(channel.kind, 10.0, False))

    sim.schedule(0.0, submit_two)
    sim.run(until=5.0)
    assert device.main_engine.wakeups == 1


def test_kernel_batch_charges_one_combined_submit_cost(sim, device):
    costs = CostParams()
    kernel = Kernel(sim, device, costs)
    task = kernel.create_task("batcher")
    context = kernel.open_context(task)
    channel = kernel.open_channel(task, context, RequestKind.COMPUTE)
    requests = [Request(RequestKind.COMPUTE, 20.0, False) for _ in range(4)]
    done = {}

    def body():
        completions = yield from kernel.submit_batch(task, channel, requests)
        done["submitted_at"] = sim.now
        done["completions"] = completions

    sim.spawn(body(), name="batcher")
    sim.run(until=5_000.0)
    # One combined direct-write cost for the whole burst...
    assert done["submitted_at"] == 4 * costs.direct_submit_us
    # ...and all four requests land and complete.
    assert len(done["completions"]) == 4
    assert all(event.triggered for event in done["completions"])
    assert device.metrics.counter("submits").total == 4
