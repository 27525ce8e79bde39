"""Tests for device-level allocation, kill, and accounting."""

import pytest

from repro.errors import OutOfResourcesError
from repro.gpu.request import RequestKind
from repro.osmodel.task import Task

from tests.gpu.conftest import submit


def test_context_limit_enforced(device):
    for index in range(device.params.max_contexts):
        device.create_context(Task(f"t{index}", index + 1))
    with pytest.raises(OutOfResourcesError):
        device.create_context(Task("overflow", 99))


def test_channel_limit_enforced(device):
    task = Task("hog", 1)
    contexts = [
        device.create_context(task) for _ in range(device.params.max_contexts)
    ]
    count = 0
    with pytest.raises(OutOfResourcesError):
        for context in contexts:
            for _ in range(3):
                device.create_channel(context, RequestKind.COMPUTE)
                count += 1
    assert count == device.params.total_channels


def test_dead_context_rejects_channels(device):
    task = Task("t", 1)
    context = device.create_context(task)
    device.kill_context(context)
    with pytest.raises(RuntimeError):
        device.create_channel(context, RequestKind.COMPUTE)


def test_killing_context_frees_slots(device):
    tasks = [Task(f"t{i}", i + 1) for i in range(device.params.max_contexts)]
    contexts = [device.create_context(task) for task in tasks]
    device.kill_context(contexts[0])
    device.create_context(Task("reuse", 99))  # no raise


def test_kill_context_triggers_pending_completions(sim, device, make_channel):
    task, context, channel = make_channel()
    first = submit(device, channel, 1000.0)
    second = submit(device, channel, 1000.0)
    fired = []
    second.completion.add_callback(lambda ev: fired.append(ev.value))
    sim.schedule(10.0, device.kill_context, context)
    sim.run()
    assert fired == [second]
    assert second.aborted


def test_kill_context_is_idempotent(sim, device, make_channel):
    _, context, _ = make_channel()
    device.kill_context(context)
    device.kill_context(context)
    assert context.dead


def test_double_kill_emits_context_killed_once(sim):
    from repro.gpu.device import GpuDevice
    from repro.gpu.params import GpuParams
    from repro.sim.trace import TraceRecorder

    trace = TraceRecorder()
    device = GpuDevice(sim, GpuParams(), trace)
    context = device.create_context(Task("t", 1))
    device.create_channel(context, RequestKind.COMPUTE)
    device.kill_context(context)
    device.kill_context(context)
    kills = [r for r in trace.records() if r.kind == "context_killed"]
    assert len(kills) == 1


def test_double_kill_charges_cleanup_cost_once(sim, device, make_channel):
    _, context, channel = make_channel("runaway")
    _, _, victim_channel = make_channel("victim")
    submit(device, channel, 1000.0)
    sim.schedule(10.0, device.kill_context, context)
    sim.schedule(10.0, device.kill_context, context)
    victim = submit(device, victim_channel, 10.0)
    sim.run()
    cleanup = device.params.context_cleanup_us
    # One cleanup stall delays the victim; a double-counted one would
    # push it past a second stall's worth of time.
    assert victim.finish_time >= 10.0 + cleanup
    assert victim.finish_time < 10.0 + 2 * cleanup


def test_kill_context_stalls_engine_for_cleanup(sim, device, make_channel):
    _, context_a, channel_a = make_channel("a")
    _, _, channel_b = make_channel("b")
    submit(device, channel_a, 1000.0)
    victim = submit(device, channel_b, 10.0)
    sim.schedule(100.0, device.kill_context, context_a)
    sim.run()
    # The victim had to wait for the abort plus the cleanup stall.
    assert victim.finish_time >= 100.0 + device.params.context_cleanup_us


def test_usage_accounting_by_task_and_kind(sim, device, make_channel):
    task, context, channel = make_channel()
    dma_channel = device.create_channel(context, RequestKind.DMA)
    submit(device, channel, 30.0)
    submit(device, dma_channel, 20.0)
    sim.run()
    assert device.task_usage(task) == 50.0


def test_live_counts_exclude_dead(device, make_channel):
    _, context, _ = make_channel()
    assert device.live_context_count == 1
    assert device.live_channel_count == 1
    device.kill_context(context)
    assert device.live_context_count == 0
    assert device.live_channel_count == 0


def test_idle_reflects_engines(sim, device, make_channel):
    _, _, channel = make_channel()
    assert device.idle
    submit(device, channel, 10.0)
    sim.run(until=1.0)
    assert not device.idle
    sim.run()
    assert device.idle


def test_single_engine_mode_serves_dma(sim):
    from repro.gpu.device import GpuDevice
    from repro.gpu.params import GpuParams

    params = GpuParams()
    params.separate_copy_engine = False
    device = GpuDevice(sim, params)
    assert device.copy_engine is None
    task = Task("t", 1)
    context = device.create_context(task)
    channel = device.create_channel(context, RequestKind.DMA)
    request = submit(device, channel, 25.0)
    sim.run()
    assert request.finish_time == 25.0
