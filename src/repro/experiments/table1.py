"""Table 1 — benchmark characteristics (round time, mean request size).

Runs every application standalone under direct device access and reports
the emergent per-round run time and average request size next to the
paper's measured values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.experiments.parallel import run_cells
from repro.metrics.tables import format_table
from repro.workloads.profiles import APP_PROFILES


@dataclass(frozen=True)
class Table1Row:
    app: str
    area: str
    paper_round_us: float
    measured_round_us: float
    paper_request_us: Optional[float]
    measured_request_us: float

    @property
    def round_error(self) -> float:
        """Relative error of the measured round time vs the paper."""
        return self.measured_round_us / self.paper_round_us - 1.0


def run(
    duration_us: float = 300_000.0,
    warmup_us: float = 50_000.0,
    seed: int = 0,
    apps: Optional[Sequence[str]] = None,
    **farm,
) -> list[Table1Row]:
    names = list(apps) if apps is not None else sorted(APP_PROFILES)
    specs = [
        CellSpec.solo(WorkloadSpec.app(name), duration_us, warmup_us, seed)
        for name in names
    ]
    cells = run_cells(specs, **farm)
    rows = []
    for name, cell in zip(names, cells):
        profile = APP_PROFILES[name]
        result = cell[name]
        rows.append(
            Table1Row(
                app=name,
                area=profile.area,
                paper_round_us=profile.paper_round_us,
                measured_round_us=result.rounds.mean_us,
                paper_request_us=profile.paper_request_us,
                measured_request_us=result.mean_request_us,
            )
        )
    return rows


def main(duration_us: float = 300_000.0, seed: int = 0, **farm) -> str:
    rows = run(duration_us=duration_us, seed=seed, **farm)
    table_rows = []
    for row in rows:
        profile = APP_PROFILES[row.app]
        if profile.paper_request_split is not None:
            paper_request = "/".join(
                f"{v:g}" for v in profile.paper_request_split
            )
        else:
            paper_request = f"{row.paper_request_us:g}"
        table_rows.append(
            [
                row.app,
                row.area,
                row.paper_round_us,
                row.measured_round_us,
                paper_request,
                row.measured_request_us,
            ]
        )
    text = format_table(
        ["app", "area", "round(paper)", "round(ours)", "req(paper)", "req(ours)"],
        table_rows,
        title="Table 1: benchmark characteristics (µs)",
    )
    print(text)
    return text
