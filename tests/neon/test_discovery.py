"""Tests for the channel-discovery state machine."""

from itertools import count

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.request import RequestKind
from repro.neon.discovery import (
    VMA_BASE,
    ChannelDiscovery,
    DiscoveryState,
    Vma,
    VmaKind,
)
from repro.osmodel.kernel import Kernel
from repro.sim.engine import Simulator


def test_initial_state():
    discovery = ChannelDiscovery(1, count(1))
    assert discovery.state is DiscoveryState.INIT
    assert not discovery.active


def test_full_setup_reaches_active():
    discovery = ChannelDiscovery(1, count(1))
    discovery.run_full_setup()
    assert discovery.state is DiscoveryState.ACTIVE
    assert discovery.active
    assert set(discovery.vmas) == set(VmaKind)


def test_partial_setup_is_not_active():
    discovery = ChannelDiscovery(1, count(1))
    discovery.observe_mmap(Vma.fresh(VmaKind.COMMAND_BUFFER, 1, 1))
    assert discovery.state is DiscoveryState.PARTIAL
    discovery.observe_mmap(Vma.fresh(VmaKind.RING_BUFFER, 1, 2))
    assert discovery.state is DiscoveryState.PARTIAL
    discovery.observe_mmap(Vma.fresh(VmaKind.CHANNEL_REGISTER, 1, 3))
    assert discovery.state is DiscoveryState.ACTIVE


def test_duplicate_mapping_replaces():
    discovery = ChannelDiscovery(1, count(1))
    first = Vma.fresh(VmaKind.COMMAND_BUFFER, 1, 1)
    second = Vma.fresh(VmaKind.COMMAND_BUFFER, 1, 2)
    discovery.observe_mmap(first)
    discovery.observe_mmap(second)
    assert discovery.vmas[VmaKind.COMMAND_BUFFER] is second
    assert discovery.state is DiscoveryState.PARTIAL


def test_wrong_channel_rejected():
    discovery = ChannelDiscovery(1, count(1))
    with pytest.raises(ValueError):
        discovery.observe_mmap(Vma.fresh(VmaKind.RING_BUFFER, 2, 1))


def test_munmap_invalidates():
    discovery = ChannelDiscovery(1, count(1))
    discovery.run_full_setup()
    discovery.observe_munmap(VmaKind.CHANNEL_REGISTER)
    assert discovery.state is DiscoveryState.PARTIAL
    discovery.observe_munmap(VmaKind.COMMAND_BUFFER)
    discovery.observe_munmap(VmaKind.RING_BUFFER)
    assert discovery.state is DiscoveryState.INIT


def test_vma_addresses_are_unique():
    # Every mapping of one simulation gets its own page, numbered from the
    # simulator's counter; a new simulation starts over at the base.
    def addresses(channels):
        sim = Simulator()
        kernel = Kernel(sim, GpuDevice(sim))
        task = kernel.create_task("t")
        context = kernel.open_context(task)
        for _ in range(channels):
            kernel.open_channel(task, context, RequestKind.COMPUTE)
        return [
            vma.address
            for discovery in kernel.discoveries.values()
            for vma in discovery.vmas.values()
        ]

    first = addresses(2)
    assert len(set(first)) == 6
    assert min(first) == VMA_BASE
    assert addresses(1) == first[:3]
