"""Tests for the device memory allocator (§6.3)."""

import pytest

from repro.errors import OutOfResourcesError
from repro.gpu.memory import GpuMemory
from repro.gpu.context import GpuContext
from repro.osmodel.task import Task


@pytest.fixture
def context():
    return GpuContext(Task("t", 1), 1)


def test_accounting(context):
    memory = GpuMemory(1024.0)
    memory.allocate(context, 256.0)
    memory.allocate(context, 256.0)
    assert memory.used_mib == 512.0
    assert memory.free_mib == 512.0
    assert memory.context_usage(context) == 512.0


def test_exhaustion_raises(context):
    memory = GpuMemory(512.0)
    memory.allocate(context, 512.0)
    with pytest.raises(OutOfResourcesError):
        memory.allocate(context, 1.0)


def test_free_returns_capacity(context):
    memory = GpuMemory(512.0)
    memory.allocate(context, 512.0)
    memory.free(context, 256.0)
    memory.allocate(context, 200.0)  # no raise
    assert memory.free_mib == pytest.approx(56.0)


def test_over_free_rejected(context):
    memory = GpuMemory(512.0)
    memory.allocate(context, 100.0)
    with pytest.raises(ValueError):
        memory.free(context, 200.0)


def test_release_context_frees_everything(context):
    memory = GpuMemory(512.0)
    memory.allocate(context, 300.0)
    released = memory.release_context(context)
    assert released == 300.0
    assert memory.free_mib == 512.0


def test_dead_context_rejected(context):
    memory = GpuMemory(512.0)
    context.dead = True
    with pytest.raises(RuntimeError):
        memory.allocate(context, 1.0)


def test_invalid_sizes_rejected(context):
    with pytest.raises(ValueError):
        GpuMemory(0.0)
    memory = GpuMemory(512.0)
    with pytest.raises(ValueError):
        memory.allocate(context, 0.0)


def test_kill_context_releases_memory(sim):
    from repro.gpu.device import GpuDevice

    device = GpuDevice(sim)
    task = Task("t", 1)
    context = device.create_context(task)
    device.memory.allocate(context, 1000.0)
    device.kill_context(context)
    assert device.memory.free_mib == device.params.memory_mib
