"""Property-based stress tests for the device engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import GpuDevice
from repro.gpu.request import Request, RequestKind
from repro.osmodel.task import Task
from repro.sim.engine import Simulator

request_plans = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),                 # channel index
        st.floats(min_value=0.1, max_value=500.0, allow_nan=False),  # size
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),  # gap
    ),
    min_size=1,
    max_size=40,
)


def _run_plan(plan):
    sim = Simulator()
    device = GpuDevice(sim)
    channels = []
    for index in range(3):
        task = Task(f"t{index}", index + 1)
        context = device.create_context(task)
        channels.append(device.create_channel(context, RequestKind.COMPUTE))
    requests = []

    def feeder():
        for channel_index, size, gap in plan:
            if gap > 0:
                yield gap
            request = Request(RequestKind.COMPUTE, size)
            device.submit(channels[channel_index], request)
            requests.append(request)

    sim.spawn(feeder())
    sim.run()
    return sim, device, channels, requests


@given(request_plans)
@settings(max_examples=40)
def test_every_request_completes_and_refcounters_match(plan):
    sim, device, channels, requests = _run_plan(plan)
    assert all(request.finish_time is not None for request in requests)
    for channel in channels:
        assert channel.refcounter == channel.last_submitted_ref
        assert channel.pending == 0


@given(request_plans)
@settings(max_examples=40)
def test_busy_time_conservation(plan):
    sim, device, channels, requests = _run_plan(plan)
    engine = device.main_engine
    service = sum(request.size_us for request in requests)
    accounted = engine.switch_us + sum(
        request.service_time for request in requests
    )
    assert abs(engine.busy_us - accounted) < 1e-6
    assert abs(service - sum(r.service_time for r in requests)) < 1e-6
    assert engine.busy_us <= sim.now + 1e-6


@given(request_plans)
@settings(max_examples=25)
def test_per_channel_fifo_order(plan):
    sim, device, channels, requests = _run_plan(plan)
    for channel in channels:
        finishes = [
            request.finish_time
            for request in requests
            if request.channel is channel
        ]
        assert finishes == sorted(finishes)


@given(request_plans)
@settings(max_examples=25)
def test_usage_charges_sum_to_service(plan):
    sim, device, channels, requests = _run_plan(plan)
    total_charged = sum(
        device.task_usage(channel.task) for channel in channels
    )
    total_service = sum(request.size_us for request in requests)
    assert abs(total_charged - total_service) < 1e-6
