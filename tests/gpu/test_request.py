"""Tests for request objects."""

import math

import pytest

from repro.gpu.device import GpuDevice
from repro.gpu.request import Request, RequestKind
from repro.osmodel.kernel import Kernel
from repro.sim.engine import Simulator


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Request(RequestKind.COMPUTE, -1.0)


def test_ids_are_unique():
    # Ids are assigned at submission, from the simulator's request counter.
    sim = Simulator()
    kernel = Kernel(sim, GpuDevice(sim))
    task = kernel.create_task("t")
    channel = kernel.open_channel(
        task, kernel.open_context(task), RequestKind.COMPUTE
    )
    a = Request(RequestKind.COMPUTE, 1.0)
    b = Request(RequestKind.COMPUTE, 1.0)
    assert a.request_id == b.request_id == 0

    def body():
        yield from kernel.submit(task, channel, a)
        yield from kernel.submit(task, channel, b)

    sim.spawn(body())
    sim.run(until=100.0)
    assert (a.request_id, b.request_id) == (1, 2)


def test_infinite_request_never_completes():
    request = Request(RequestKind.COMPUTE, math.inf)
    assert request.never_completes


def test_finite_request_completes():
    request = Request(RequestKind.COMPUTE, 10.0)
    assert not request.never_completes


def test_service_time_none_until_finished():
    request = Request(RequestKind.COMPUTE, 10.0)
    assert request.service_time is None
    request.start_time = 5.0
    assert request.service_time is None
    request.finish_time = 15.0
    assert request.service_time == 10.0


def test_kinds_cover_compute_graphics_dma():
    assert {k.value for k in RequestKind} == {"compute", "graphics", "dma"}
