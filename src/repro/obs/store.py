"""Per-cell result collection for the cell farm.

The cell farm (:func:`repro.experiments.parallel.run_cells`) calls
:meth:`RunCollector.add_cell` for every cell it resolves (computed,
pooled, cache hit, or duplicate) when a collector is installed via
:func:`collecting`; with none installed (the default) the farm pays one
``is None`` check per cell and stdout stays byte-identical.  The
benchmark in ``perfbench/`` reads each figure's cell results this way.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional


class RunCollector:
    """Accumulates one run's resolved cells as the cell farm executes it.

    The farm serializes results itself (it owns the JSON-able form of a
    :class:`WorkloadResult`), so the collector never imports the
    experiments layer.  Cells arrive in resolution order, which under a
    pool is completion order; sort by ``index`` for spec order.
    """

    def __init__(self, experiment: str = "") -> None:
        self.experiment = experiment
        self.cells: list[dict[str, Any]] = []

    def add_cell(
        self, index: int, label: str, source: str, workloads: dict[str, Any]
    ) -> None:
        """One resolved cell: its spec index, label, source and results."""
        self.cells.append(
            {
                "index": index,
                "label": label,
                "source": source,
                "workloads": workloads,
            }
        )


#: Module-level active collector; None unless a run installs one.
_ACTIVE: Optional[RunCollector] = None


def active_collector() -> Optional[RunCollector]:
    """The installed collector, or None when collection is off."""
    return _ACTIVE


@contextmanager
def collecting(collector: RunCollector) -> Iterator[RunCollector]:
    """Install ``collector`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = previous
