"""Configuration-parameter sensitivity (§5.2).

The paper states "NEON is not particularly sensitive to configuration
parameters.  We tested different settings, but found the above to be
sufficient."  This study sweeps the three main knobs — polling period,
timeslice length, sampling request budget — and shows fairness and
overhead stay within narrow bands around the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.ablations import dct_throttle_slowdowns
from repro.experiments.cells import WorkloadSpec
from repro.metrics.tables import format_table
from repro.osmodel.costs import CostParams


@dataclass(frozen=True)
class SensitivityRow:
    knob: str
    value: float
    scheduler: str
    standalone_overhead: float
    app_slowdown: float
    throttle_slowdown: float

    @property
    def fair(self) -> bool:
        return self.app_slowdown < 3.0 and self.throttle_slowdown < 3.0


def _costs_with(knob: str, value: float) -> CostParams:
    costs = CostParams()
    setattr(costs, knob, value)
    return costs


SWEEPS: dict[str, tuple[str, Sequence[float]]] = {
    # knob key -> (scheduler it matters to, values)
    "poll_interval_us": ("dfq", (500.0, 1000.0, 2000.0)),
    "timeslice_us": ("disengaged-timeslice", (10_000.0, 30_000.0, 100_000.0)),
    "sample_max_requests": ("dfq", (16, 32, 64)),
}


def run(
    duration_us: float = 300_000.0,
    warmup_us: float = 60_000.0,
    seed: int = 0,
    **farm,
) -> list[SensitivityRow]:
    settings = [
        (knob, scheduler, value)
        for knob, (scheduler, values) in SWEEPS.items()
        for value in values
    ]
    slowdowns = dct_throttle_slowdowns(
        [(scheduler, _costs_with(knob, value))
         for knob, scheduler, value in settings],
        WorkloadSpec.throttle(500.0, name="thr"), duration_us, warmup_us,
        seed, **farm,
    )
    return [
        SensitivityRow(knob, float(value), scheduler, *row)
        for (knob, scheduler, value), row in zip(settings, slowdowns)
    ]


def main(duration_us: float = 300_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        ["knob", "value", "scheduler", "standalone overhead", "DCT x", "thr x", "fair"],
        [
            [
                row.knob,
                row.value,
                row.scheduler,
                f"{100 * row.standalone_overhead:.1f}%",
                row.app_slowdown,
                row.throttle_slowdown,
                row.fair,
            ]
            for row in rows
        ],
        title="Parameter sensitivity (paper: 'not particularly sensitive')",
    )
    print(table)
    return table
