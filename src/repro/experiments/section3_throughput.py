"""Section 3 — direct access vs. trap-per-request throughput.

The paper hand-tuned equal-sized OpenCL requests against an Nvidia stack
(direct-mapped submission) and an AMD Catalyst stack (kernel trap per
request) and found direct access buys 8–35% throughput for 10–100 µs
requests, rising to 48–170% when traps involve nontrivial driver work.
We reproduce the comparison with the Throttle microbenchmark over the
three modeled submission stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table

REQUEST_SIZES_US = (10.0, 20.0, 50.0, 100.0)

#: The three submission stacks, in table column order.
SUBMIT_MODES = ("mmio", "syscall", "syscall+driver")


@dataclass(frozen=True)
class ThroughputRow:
    request_size_us: float
    direct_rps: float
    syscall_rps: float
    driver_rps: float

    @property
    def direct_vs_syscall_gain(self) -> float:
        """Fractional throughput gain of direct access over bare traps."""
        return self.direct_rps / self.syscall_rps - 1.0

    @property
    def direct_vs_driver_gain(self) -> float:
        return self.direct_rps / self.driver_rps - 1.0


def run(
    duration_us: float = 100_000.0,
    seed: int = 0,
    sizes: Sequence[float] = REQUEST_SIZES_US,
    **farm,
) -> list[ThroughputRow]:
    specs = [
        CellSpec.solo(
            WorkloadSpec.throttle(size, submit_mode=mode), duration_us, 0.0,
            seed,
        )
        for size in sizes
        for mode in SUBMIT_MODES
    ]
    rates = [
        next(iter(cell.values())).rounds.count / (duration_us / 1e6)
        for cell in run_cells(specs, **farm)
    ]
    stacks = len(SUBMIT_MODES)
    return [
        ThroughputRow(size, *rates[index * stacks:(index + 1) * stacks])
        for index, size in enumerate(sizes)
    ]


def main(duration_us: float = 100_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table = format_table(
        [
            "request(us)",
            "direct req/s",
            "trap req/s",
            "trap+driver req/s",
            "direct gain vs trap",
            "vs trap+driver",
        ],
        [
            [
                row.request_size_us,
                row.direct_rps,
                row.syscall_rps,
                row.driver_rps,
                f"{100 * row.direct_vs_syscall_gain:.0f}%",
                f"{100 * row.direct_vs_driver_gain:.0f}%",
            ]
            for row in rows
        ],
        title="Section 3: throughput of direct access vs trap-per-request "
        "(paper: +8-35% / +48-170%)",
    )
    print(table)
    return table
