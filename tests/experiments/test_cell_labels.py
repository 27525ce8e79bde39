"""Cell labels and timing indices name one cell each within a driver."""

from dataclasses import replace

import pytest

from repro.experiments import ablations, overhead_breakdown, preemption, sensitivity
from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.gpu.params import GpuParams
from repro.osmodel.costs import CostParams

DURATION_US = 120_000.0


@pytest.mark.parametrize("driver", [sensitivity, preemption, ablations],
                         ids=lambda driver: driver.__name__.rsplit(".", 1)[-1])
def test_distinct_cells_of_a_driver_have_distinct_labels(driver, monkeypatch):
    keys_by_label: dict[str, set[str]] = {}

    def recording_run_cells(specs, **farm):
        for spec in specs:
            # A label names one simulation.  No parameters and default
            # parameters simulate the same run, and the warmup only picks
            # which of its rounds a result counts (ablations measures the
            # same DCT runs over 60 ms and 80 ms warmups).
            same = replace(spec, costs=spec.costs or CostParams(),
                           gpu_params=spec.gpu_params or GpuParams(),
                           warmup_us=0.0)
            keys_by_label.setdefault(spec.label(), set()).add(same.content_key())
        return run_cells(specs, **farm)

    for module in (ablations, preemption):
        monkeypatch.setattr(module, "run_cells", recording_run_cells)
    driver.main(duration_us=DURATION_US)
    assert keys_by_label
    shared = {label: len(keys) for label, keys in keys_by_label.items()
              if len(keys) > 1}
    assert not shared


def test_default_parameters_leave_the_label_unchanged():
    throttle = (WorkloadSpec.throttle(45_000.0), WorkloadSpec.throttle(100.0))
    plain = CellSpec("disengaged-timeslice", throttle, 1.0, 0.0)
    assert plain.label() == "disengaged-timeslice:throttle-45000.0+throttle-100.0"
    defaults = CellSpec("disengaged-timeslice", throttle, 1.0, 0.0,
                        costs=CostParams(), gpu_params=GpuParams())
    assert defaults.label() == plain.label()
    params = GpuParams()
    params.preemption_supported = True
    costs = CostParams()
    costs.max_request_us = 60_000.0
    changed = CellSpec("disengaged-timeslice", throttle, 1.0, 0.0,
                       costs=costs, gpu_params=params)
    assert changed.label() == (
        plain.label() + ":max_request_us=60000.0,preemption_supported=True"
    )


def test_timing_indices_count_across_a_drivers_farm_calls():
    timings = []
    ablations.main(duration_us=DURATION_US, timings=timings)
    indices = [timing.index for timing in timings]
    assert len(indices) == len(set(indices))
    assert sorted(indices) == list(range(len(timings)))


def test_breakdown_fractions_sum_to_one():
    rows = overhead_breakdown.run(duration_us=200_000.0, sizes=(110.0, 1700.0))
    assert rows
    for row in rows:
        total = (row.freerun_fraction + row.drain_wait_fraction
                 + row.sampling_fraction + row.other_engagement_fraction)
        assert total == pytest.approx(1.0)
