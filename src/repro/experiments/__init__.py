"""Experiment drivers — one module per paper table/figure.

Every driver exposes a ``run(...)`` function returning structured results
and a ``main()`` that prints the paper-style table; the CLI
(``python -m repro <experiment>``) dispatches to them.  A driver whose
simulations are cells takes ``**farm``, the keywords it passes on to
:func:`~repro.experiments.parallel.run_cells` (``workers``, ``cache``,
``timings``).  Durations default
to values long enough for steady state but can be shrunk for quick runs
(``repro claims`` runs each claim's driver at a fixed reduced scale, see
:mod:`repro.analysis.reference`).
"""

from repro.experiments.cells import (
    CellSpec,
    WorkloadSpec,
    register_workload_kind,
)
from repro.experiments.parallel import (
    CellTiming,
    ResultCache,
    format_cell_timings,
    run_cells,
)
from repro.experiments.runner import (
    SimulationEnv,
    WorkloadResult,
    build_env,
    run_workloads,
)

__all__ = [
    "CellSpec",
    "CellTiming",
    "ResultCache",
    "SimulationEnv",
    "WorkloadResult",
    "WorkloadSpec",
    "build_env",
    "format_cell_timings",
    "register_workload_kind",
    "run_cells",
    "run_workloads",
]
