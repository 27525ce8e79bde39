"""Tests for the kernel: submission paths, lifecycle, quota."""

import pytest

from repro.core.base import SchedulerBase
from repro.errors import OutOfResourcesError
from repro.gpu.device import GpuDevice
from repro.gpu.request import Request, RequestKind
from repro.osmodel.costs import CostParams
from repro.osmodel.kernel import ChannelQuotaPolicy, Kernel


class RecordingScheduler(SchedulerBase):
    """Configurable stub: optionally protects channels and blocks faults."""

    name = "recording"

    def __init__(self, protect=False, block_first=0):
        super().__init__()
        self.protect = protect
        self.block_first = block_first
        self.faults = []
        self.submits = []
        self.started = []
        self.exited = []
        self.block_events = []

    def on_channel_tracked(self, channel):
        if self.protect:
            channel.register_page.protect()

    def on_task_start(self, task):
        self.started.append(task.name)

    def on_task_exit(self, task):
        super().on_task_exit(task)
        self.exited.append(task.name)

    def on_fault(self, task, channel, request):
        self.faults.append(request.request_id)
        if len(self.block_events) < self.block_first:
            event = self.sim.event()
            self.block_events.append(event)
            return event
        return None

    def on_submit(self, task, channel, request):
        self.submits.append(request.request_id)


@pytest.fixture
def system(sim):
    device = GpuDevice(sim)
    kernel = Kernel(sim, device, CostParams())
    return device, kernel


def _setup_task(kernel):
    task = kernel.create_task("app")
    context = kernel.open_context(task)
    channel = kernel.open_channel(task, context, RequestKind.COMPUTE)
    return task, channel


def _drive(sim, generator):
    """Run a kernel generator inside a process; return captured result."""
    box = {}

    def body():
        box["result"] = yield from generator
        box["time"] = sim.now

    sim.spawn(body())
    # The polling service runs forever; bound the clock instead of draining.
    sim.run(until=10_000.0)
    return box


def test_direct_submission_costs_one_mmio_write(sim, system):
    device, kernel = system
    scheduler = RecordingScheduler(protect=False)
    kernel.attach_scheduler(scheduler)
    task, channel = _setup_task(kernel)
    request = Request(RequestKind.COMPUTE, 10.0)

    times = {}

    def body():
        yield from kernel.submit(task, channel, request)
        times["submitted"] = sim.now

    sim.spawn(body())
    sim.run(until=1.0)
    assert times["submitted"] == pytest.approx(kernel.costs.direct_submit_us)
    assert kernel.metrics.counter("faults").total == 0
    assert scheduler.faults == []


def test_protected_submission_faults_and_costs_more(sim, system):
    device, kernel = system
    scheduler = RecordingScheduler(protect=True)
    kernel.attach_scheduler(scheduler)
    task, channel = _setup_task(kernel)
    request = Request(RequestKind.COMPUTE, 10.0)

    times = {}

    def body():
        yield from kernel.submit(task, channel, request)
        times["submitted"] = sim.now

    sim.spawn(body())
    sim.run(until=100.0)
    expected = kernel.costs.direct_submit_us + kernel.costs.intercept_us
    assert times["submitted"] == pytest.approx(expected)
    assert kernel.metrics.counter("faults").total == 1
    assert scheduler.faults == [request.request_id]
    assert scheduler.submits == [request.request_id]


def test_blocked_fault_waits_for_scheduler(sim, system):
    device, kernel = system
    scheduler = RecordingScheduler(protect=True, block_first=1)
    kernel.attach_scheduler(scheduler)
    task, channel = _setup_task(kernel)
    request = Request(RequestKind.COMPUTE, 10.0)

    times = {}

    def body():
        yield from kernel.submit(task, channel, request)
        times["submitted"] = sim.now

    sim.spawn(body())
    sim.run(until=500.0)
    assert "submitted" not in times  # still blocked
    scheduler.block_events[0].trigger()
    sim.run(until=1_000.0)
    assert times["submitted"] >= 500.0
    # One fault trap total: the re-check after waking is handler-internal.
    assert kernel.metrics.counter("faults").total == 1


def test_task_lifecycle_notifications(sim, system):
    device, kernel = system
    scheduler = RecordingScheduler()
    kernel.attach_scheduler(scheduler)
    task, channel = _setup_task(kernel)
    assert scheduler.started == ["app"]
    kernel.exit_task(task)
    assert scheduler.exited == ["app"]
    assert not task.alive


def test_exit_task_releases_device_resources(sim, system):
    device, kernel = system
    kernel.attach_scheduler(RecordingScheduler())
    task, channel = _setup_task(kernel)
    assert device.live_channel_count == 1
    kernel.exit_task(task)
    assert device.live_channel_count == 0
    kernel.exit_task(task)  # idempotent


def test_kill_task_records_reason_and_kills_process(sim, system):
    device, kernel = system
    kernel.attach_scheduler(RecordingScheduler())
    task, channel = _setup_task(kernel)

    def body():
        yield 1_000_000.0

    task.process = sim.spawn(body())
    kernel.kill_task(task, "being bad")
    sim.run(until=10.0)
    assert task.kill_reason == "being bad"
    assert not task.alive
    assert task.process.killed


def test_quota_limits_channels_per_task(sim, system):
    device, kernel = system
    kernel.quota = ChannelQuotaPolicy(channels_per_task=2)
    kernel.attach_scheduler(RecordingScheduler())
    task = kernel.create_task("greedy")
    context = kernel.open_context(task)
    kernel.open_channel(task, context, RequestKind.COMPUTE)
    kernel.open_channel(task, context, RequestKind.DMA)
    with pytest.raises(OutOfResourcesError):
        kernel.open_channel(task, context, RequestKind.COMPUTE)


def test_quota_limits_task_count(sim, system):
    device, kernel = system
    quota = ChannelQuotaPolicy(channels_per_task=24)
    kernel.quota = quota
    kernel.attach_scheduler(RecordingScheduler())
    max_tasks = device.params.total_channels // quota.channels_per_task
    for index in range(max_tasks):
        task = kernel.create_task(f"t{index}")
        context = kernel.open_context(task)
        kernel.open_channel(task, context, RequestKind.COMPUTE)
    straggler = kernel.create_task("straggler")
    context = kernel.open_context(straggler)
    with pytest.raises(OutOfResourcesError):
        kernel.open_channel(straggler, context, RequestKind.COMPUTE)


def test_syscall_submission_costs_trap(sim, system):
    device, kernel = system
    kernel.attach_scheduler(RecordingScheduler())
    task, channel = _setup_task(kernel)
    request = Request(RequestKind.COMPUTE, 10.0)
    box = _drive(sim, kernel.submit_via_syscall(task, channel, request, False))
    assert box["time"] == pytest.approx(kernel.costs.syscall_us)


def test_syscall_with_driver_work_costs_more(sim, system):
    device, kernel = system
    kernel.attach_scheduler(RecordingScheduler())
    task, channel = _setup_task(kernel)
    request = Request(RequestKind.COMPUTE, 10.0)
    box = _drive(sim, kernel.submit_via_syscall(task, channel, request, True))
    assert box["time"] == pytest.approx(
        kernel.costs.syscall_us + kernel.costs.driver_work_us
    )


def test_fault_counts_per_task(sim, system):
    device, kernel = system
    scheduler = RecordingScheduler(protect=True)
    kernel.attach_scheduler(scheduler)
    task, channel = _setup_task(kernel)

    def body():
        for _ in range(3):
            request = Request(RequestKind.COMPUTE, 1.0)
            completion = yield from kernel.submit(task, channel, request)
            yield completion

    sim.spawn(body())
    sim.run(until=10_000.0)
    assert kernel.metrics.counter("faults").value(task.name) == 3
