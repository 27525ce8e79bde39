"""GPU-model fixtures: a device plus helpers to make tasks and channels."""

from __future__ import annotations

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.params import GpuParams
from repro.gpu.request import Request, RequestKind
from repro.osmodel.task import Task


@pytest.fixture
def gpu_params() -> GpuParams:
    return GpuParams()


@pytest.fixture
def device(sim, gpu_params) -> GpuDevice:
    return GpuDevice(sim, gpu_params)


@pytest.fixture
def make_channel(device):
    """Create (task, context, channel) triples on demand."""

    def factory(name: str = "task", kind: RequestKind = RequestKind.COMPUTE):
        task = Task(name, next(device.sim.id_counter("task")))
        context = device.create_context(task)
        channel = device.create_channel(context, kind)
        return task, context, channel

    return factory


def submit(device, channel, size_us: float, kind=None, blocking=True) -> Request:
    request = Request(kind or channel.kind, size_us, blocking)
    device.submit(channel, request)
    return request
