"""Parallel experiment-cell execution with content-keyed result sharing.

:func:`run_cells` is the single entry point: it takes a sequence of
:class:`~repro.experiments.cells.CellSpec` declarations and returns their
results **in spec order**, so driver output is byte-identical to a serial
loop regardless of worker count.  Three mechanisms make it fast:

* **dedup** — identical cells (same content key) within one call are
  computed once and share the result object;
* **cache** — a :data:`ResultCache` (a plain dict from content key to
  results, living for one process) carries results *across* calls, so
  e.g. the solo direct-access baselines are computed once and shared
  between figure4/5, figure6/7, and figure9/10;
* **fan-out** — with ``workers > 1``, unique uncached cells execute in a
  ``ProcessPoolExecutor``; any pool failure (including a spec that does
  not pickle) falls back to serial execution in the parent.

Results are never persisted: a content key hashes a cell's
configuration, not the code that runs it, so a result is only reused by
the process that computed it.

Each cell's host wall time is recorded in a :class:`CellTiming` — pool
cells measure it inside the worker, so it is the cell's own cost, not a
collection-order artifact; reused cells cost nothing.  Three optional
observers hook the same resolution points, all inert unless a run
installs them:

* the cell collector (:mod:`repro.obs.store`) receives each resolved
  cell's results, in resolution order;
* the progress renderer (:mod:`repro.experiments.progress`,
  ``--progress``) shows live per-cell status on stderr;
* a monitoring session (:mod:`repro.obs.monitor`, ``repro monitor``)
  streams windowed metrics from cells executed in this process.

This module is host-side orchestration, not simulation: it deliberately
reads the wall clock (see ``host_clock_modules`` in neonlint's config) —
virtual time inside each cell remains fully deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.cells import CellSpec
from repro.experiments.progress import active_progress
from repro.experiments.runner import WorkloadResult
from repro.obs.monitor import active_monitor
from repro.obs.store import RunCollector, active_collector

CellResults = dict[str, WorkloadResult]

#: Content key → results, shared by the ``run_cells`` calls of one process.
ResultCache = dict[str, CellResults]


def result_to_jsonable(result: WorkloadResult) -> dict:
    """One workload's result as plain JSON-encodable data."""
    rounds = result.rounds
    return {
        "name": result.name,
        "rounds": {
            "count": rounds.count,
            "mean_us": rounds.mean_us,
            "median_us": rounds.median_us,
            "p95_us": rounds.p95_us,
        },
        "killed": result.killed,
        "kill_reason": result.kill_reason,
        "mean_request_us": result.mean_request_us,
        "requests_submitted": result.requests_submitted,
        "ground_truth_usage_us": result.ground_truth_usage_us,
        "metrics": result.metrics,
    }


@dataclass(frozen=True)
class CellTiming:
    """Host wall time this run spent producing one cell's result.

    Reused cells (``cache`` / ``dup``) cost nothing and record 0.  The
    index counts across every ``run_cells`` call that shares one
    ``timings`` list, so it is unique within a driver.
    """

    index: int
    label: str
    wall_s: float
    source: str  # "run" | "pool" | "cache" | "dup"


def format_cell_timings(timings: Sequence[CellTiming]) -> str:
    """Human-readable per-cell wall-time summary."""
    if not timings:
        return "cell farm: no cells executed"
    executed = [t for t in timings if t.source in ("run", "pool")]
    reused = len(timings) - len(executed)
    total = sum(t.wall_s for t in executed)
    lines = [
        f"cell farm: {len(timings)} cells "
        f"({len(executed)} executed, {reused} reused), wall {total:.2f}s"
    ]
    slowest = sorted(executed, key=lambda t: (-t.wall_s, t.index))[:5]
    for timing in slowest:
        lines.append(
            f"  slowest {timing.wall_s:6.2f}s  cell[{timing.index}]  "
            f"{timing.label} ({timing.source})"
        )
    return "\n".join(lines)


def _execute_cell(spec: CellSpec) -> tuple[CellResults, float]:
    """Pool worker entry point: run one cell, measuring its own wall time.

    Measuring inside the worker makes the per-cell cost real even under
    concurrency (the parent only sees collection-order elapsed time).
    """
    started = time.perf_counter()
    results = spec.run()
    return results, time.perf_counter() - started


def _collect_cell(
    collector: Optional[RunCollector],
    spec: CellSpec,
    index: int,
    source: str,
    results: CellResults,
) -> None:
    """Report one resolved cell to the installed collector, if any."""
    if collector is None:
        return
    collector.add_cell(
        index=index,
        label=spec.label(),
        source=source,
        workloads={
            name: result_to_jsonable(result)
            for name, result in results.items()
        },
    )


def run_cells(
    specs: Sequence[CellSpec],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    timings: Optional[list[CellTiming]] = None,
) -> list[CellResults]:
    """Execute every cell and return results in spec order.

    ``workers <= 1`` (or any pool/pickling failure) degrades to plain
    serial execution; output is identical either way.  Results found in
    ``cache`` are reused, and every computed result is added to it.
    """
    clock = time.perf_counter
    collector = active_collector()
    progress = active_progress()
    monitor_session = active_monitor()

    results: list[Optional[CellResults]] = [None] * len(specs)
    keys = [spec.content_key() for spec in specs]
    # Earlier calls of the same driver already numbered their cells.
    offset = len(timings) if timings is not None else 0

    def reuse(index: int, source: str) -> None:
        """Report a cell whose result came from the cache or a twin."""
        label = specs[index].label()
        if timings is not None:
            timings.append(CellTiming(offset + index, label, 0.0, source))
        _collect_cell(collector, specs[index], index, source, results[index])
        if monitor_session is not None:
            monitor_session.cell_reused(label, source)
        if progress is not None:
            progress.cell_done(index, label, source, 0.0)

    if progress is not None:
        progress.begin(len(specs))

    # Resolve cache hits and intra-call duplicates first.
    first_owner: dict[str, int] = {}
    pending: list[int] = []
    for index, key in enumerate(keys):
        if cache is not None and key in cache:
            results[index] = cache[key]
            reuse(index, "cache")
        elif key not in first_owner:
            first_owner[key] = index
            pending.append(index)

    workers = max(1, min(int(workers), len(pending) or 1))
    # A monitoring session lives in this process (module-level hooks and
    # live sinks don't cross a pool boundary), so monitored cells always
    # execute serially in the parent.
    use_pool = workers > 1 and monitor_session is None

    if use_pool and pending:
        timings_mark = len(timings) if timings is not None else 0
        collected_mark = len(collector.cells) if collector is not None else 0
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_execute_cell, specs[index]): index
                    for index in pending
                }
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED
                    )
                    for future in sorted(done, key=lambda f: futures[f]):
                        index = futures[future]
                        cell_results, wall = future.result()
                        results[index] = cell_results
                        if timings is not None:
                            timings.append(
                                CellTiming(
                                    offset + index, specs[index].label(),
                                    wall, "pool",
                                )
                            )
                        _collect_cell(collector, specs[index], index, "pool",
                                      cell_results)
                        if progress is not None:
                            progress.cell_done(
                                index, specs[index].label(), "pool", wall
                            )
        except Exception:
            # Broken pool, pickling edge case, interpreter without fork…
            # recompute everything serially; determinism makes this safe.
            # Forget what the failed attempt reported, so each cell is
            # reported once, by the serial run that really produced it.
            for index in pending:
                results[index] = None
            if timings is not None:
                del timings[timings_mark:]
            if collector is not None:
                del collector.cells[collected_mark:]
            use_pool = False
            if progress is not None:
                progress.note("worker pool failed; falling back to serial")
                progress.begin(len(specs))

    if not use_pool:
        for index in pending:
            spec = specs[index]
            if monitor_session is not None:
                monitor_session.begin_cell(spec.label())
            if progress is not None:
                progress.cell_running(index, spec.label())
            started = clock()
            try:
                results[index] = spec.run()
            except Exception:
                if progress is not None:
                    progress.cell_failed(index, spec.label())
                raise
            wall = clock() - started
            if timings is not None:
                timings.append(
                    CellTiming(offset + index, spec.label(), wall, "run")
                )
            _collect_cell(collector, spec, index, "run", results[index])
            if progress is not None:
                progress.cell_done(index, spec.label(), "run", wall)

    # Fill the cache and duplicate slots from the computed owners.
    if cache is not None:
        for index in pending:
            cache[keys[index]] = results[index]
    for index, key in enumerate(keys):
        if results[index] is None:
            results[index] = results[first_owner[key]]
            reuse(index, "dup")

    if progress is not None:
        progress.end()

    missing = [index for index, result in enumerate(results) if result is None]
    if missing:  # pragma: no cover - defensive
        raise RuntimeError(f"cells {missing} produced no result")
    return results  # type: ignore[return-value]
