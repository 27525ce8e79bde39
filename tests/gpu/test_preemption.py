"""Tests for hardware preemption and runlist masking (§6.2 extension)."""

import math

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.osmodel.task import Task

from tests.gpu.conftest import submit


@pytest.fixture
def preemptive_device(sim):
    params = GpuParams()
    params.preemption_supported = True
    return GpuDevice(sim, params)


def _make_channel(device, name="task"):
    task = Task(name, next(device.sim.id_counter("task")))
    context = device.create_context(task)
    channel = device.create_channel(context, RequestKind.COMPUTE)
    return task, context, channel


def test_preempt_requeues_remainder(sim, preemptive_device):
    device = preemptive_device
    task, context, channel = _make_channel(device)
    request = submit(device, channel, 1000.0)
    sim.schedule(300.0, device.main_engine.preempt_current)
    sim.run(until=305.0)
    assert request.preemptions == 1
    assert request.remaining_us == pytest.approx(700.0)
    assert channel.queue[0] is request
    # Resumes and completes: total service plus save+restore overhead.
    sim.run()
    assert request.finish_time == pytest.approx(
        1000.0 + 2 * device.params.preemption_save_restore_us
    )
    assert channel.refcounter == 1


def test_preempt_charges_partial_usage(sim, preemptive_device):
    device = preemptive_device
    task, context, channel = _make_channel(device)
    submit(device, channel, math.inf)
    sim.schedule(400.0, device.main_engine.preempt_current)
    sim.run(until=500.0)
    assert device.task_usage(task) == pytest.approx(400.0)


def test_preempt_without_hardware_support_is_refused(sim, device, make_channel):
    _, _, channel = make_channel()
    submit(device, channel, 1000.0)
    sim.run(until=100.0)
    assert device.main_engine.preempt_current() is False


def test_preempt_scoped_to_context(sim, preemptive_device):
    device = preemptive_device
    task_a, context_a, channel_a = _make_channel(device, "a")
    task_b, context_b, channel_b = _make_channel(device, "b")
    submit(device, channel_a, 1000.0)
    sim.run(until=100.0)
    assert device.main_engine.preempt_current(context_b) is False
    assert device.main_engine.preempt_current(context_a) is True


def test_masked_channel_is_not_served(sim, preemptive_device):
    device = preemptive_device
    task, context, channel = _make_channel(device)
    channel.masked = True
    request = submit(device, channel, 50.0)
    sim.run(until=1_000.0)
    assert request.start_time is None
    channel.masked = False
    device.main_engine.notify()
    sim.run(until=2_000.0)
    assert request.finish_time is not None


def test_infinite_request_contained_by_preempt_mask_cycle(sim, preemptive_device):
    """Preempt + mask + unmask shares the engine with a runaway present."""
    device = preemptive_device
    task_a, context_a, channel_a = _make_channel(device, "runaway")
    task_b, context_b, channel_b = _make_channel(device, "victim")
    runaway = submit(device, channel_a, math.inf)
    victims = [submit(device, channel_b, 100.0) for _ in range(3)]

    def slice_loop():
        while True:
            yield 1_000.0
            device.main_engine.preempt_current(context_a)
            channel_a.masked = True
            device.main_engine.notify()
            yield 1_000.0
            channel_a.masked = False
            device.main_engine.notify()

    sim.spawn(slice_loop())
    sim.run(until=10_000.0)
    assert all(victim.finish_time is not None for victim in victims)
    assert not runaway.aborted
    assert device.task_usage(task_a) > 3_000.0  # runaway still progressed


def test_preemptions_counted(sim, preemptive_device):
    device = preemptive_device
    task, context, channel = _make_channel(device)
    submit(device, channel, 10_000.0)
    for delay in (100.0, 300.0, 600.0):
        sim.schedule(delay, device.main_engine.preempt_current)
    sim.run()
    assert device.main_engine.preemptions == 3
