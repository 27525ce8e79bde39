"""Parallel experiment-cell execution with content-keyed result caching.

:func:`run_cells` is the single entry point: it takes a sequence of
:class:`~repro.experiments.cells.CellSpec` declarations and returns their
results **in spec order**, so driver output is byte-identical to a serial
loop regardless of worker count.  Three mechanisms make it fast:

* **dedup** — identical cells (same content key) within one call are
  computed once and share the result object;
* **cache** — a :class:`ResultCache` (in-memory per run, optionally
  persisted as JSON files under a directory) carries results *across*
  calls, so e.g. the solo direct-access baselines are computed once and
  shared between figure4/5, figure6/7, and figure9/10;
* **fan-out** — with ``workers > 1``, unique uncached cells execute in a
  ``ProcessPoolExecutor``; cells that cannot be pickled (callable-based
  workload specs) or any pool failure fall back to serial execution in
  the parent.

Each cell's host wall time is recorded in a :class:`CellTiming` — pool
cells measure it inside the worker, so it is the cell's own cost, not a
collection-order artifact — and persisted alongside the cached result,
so a warm-cache run still reports what its cells originally cost.  Three
optional observers hook the same resolution points, all inert unless a
run installs them:

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

import json
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.cells import CellSpec
from repro.experiments.progress import active_progress
from repro.experiments.runner import WorkloadResult
from repro.metrics.rounds import RoundStats
from repro.obs.monitor import active_monitor
from repro.obs.store import RunCollector, active_collector

CellResults = dict[str, WorkloadResult]


# ----------------------------------------------------------------------
# Result (de)serialization — for the on-disk cache
# ----------------------------------------------------------------------
def result_to_jsonable(result: WorkloadResult) -> dict:
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


def result_from_jsonable(payload: dict) -> WorkloadResult:
    rounds = payload["rounds"]
    return WorkloadResult(
        name=payload["name"],
        rounds=RoundStats(
            count=rounds["count"],
            mean_us=rounds["mean_us"],
            median_us=rounds["median_us"],
            p95_us=rounds["p95_us"],
        ),
        killed=payload["killed"],
        kill_reason=payload["kill_reason"],
        mean_request_us=payload["mean_request_us"],
        requests_submitted=payload["requests_submitted"],
        ground_truth_usage_us=payload["ground_truth_usage_us"],
        metrics=payload.get("metrics", {}),
    )


class ResultCache:
    """Content-keyed cache of cell results.

    In-memory always; when ``directory`` is given, results are also
    persisted as one JSON file per content key and reloaded lazily, so
    repeated CLI invocations (``--cache-dir``) skip finished cells.

    Alongside each result the cache remembers the wall time originally
    spent computing it (``wall_s`` in the JSON payload — an additive
    field, so caches written before it existed still load), which lets
    warm-cache runs report what their reused cells once cost.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        self._memory: dict[str, CellResults] = {}
        self._wall: dict[str, Optional[float]] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Optional[Path]:
        if self.directory is None:
            return None
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[CellResults]:
        found = self._memory.get(key)
        if found is not None:
            self.hits += 1
            return found
        path = self._path(key)
        if path is not None and path.is_file():
            payload = json.loads(path.read_text())
            found = {
                name: result_from_jsonable(entry)
                for name, entry in payload["results"].items()
            }
            self._memory[key] = found
            self._wall[key] = payload.get("wall_s")
            self.hits += 1
            return found
        self.misses += 1
        return None

    def wall_s(self, key: str) -> Optional[float]:
        """Wall time originally spent computing ``key``, if known."""
        return self._wall.get(key)

    def put(
        self, key: str, results: CellResults, wall_s: Optional[float] = None
    ) -> None:
        self._memory[key] = results
        if wall_s is not None or key not in self._wall:
            self._wall[key] = wall_s
        path = self._path(key)
        if path is not None:
            payload = {
                "results": {
                    name: result_to_jsonable(result)
                    for name, result in results.items()
                },
                "wall_s": self._wall[key],
            }
            path.write_text(json.dumps(payload))


@dataclass(frozen=True)
class CellTiming:
    """Host wall time spent producing one cell's result.

    ``wall_s`` is what *this* run paid; for reused cells (``cache`` /
    ``dup``) that is ~0 and ``cached_wall_s`` carries what the cell cost
    when it was originally computed, when the cache still knows.
    """

    index: int
    label: str
    wall_s: float
    source: str  # "run" | "pool" | "cache" | "dup"
    cached_wall_s: float = 0.0


def format_cell_timings(timings: Sequence[CellTiming]) -> str:
    """Human-readable per-cell wall-time summary."""
    if not timings:
        return "cell farm: no cells executed"
    executed = [t for t in timings if t.source in ("run", "pool")]
    reused = len(timings) - len(executed)
    total = sum(t.wall_s for t in timings)
    computed = sum(t.wall_s for t in executed)
    saved = sum(t.cached_wall_s for t in timings if t.source not in ("run", "pool"))
    saved_text = f", reuse saved {saved:.2f}s" if saved > 0 else ""
    lines = [
        f"cell farm: {len(timings)} cells "
        f"({len(executed)} executed, {reused} reused), "
        f"wall {total:.2f}s (computed {computed:.2f}s{saved_text})"
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


def _picklable(spec: CellSpec) -> bool:
    if not spec.cacheable:  # callable-based specs never cross the boundary
        return False
    try:
        pickle.dumps(spec)
    except Exception:
        return False
    return True


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
    serial execution; output is identical either way.
    """
    clock = time.perf_counter
    collector = active_collector()
    progress = active_progress()
    monitor_session = active_monitor()

    results: list[Optional[CellResults]] = [None] * len(specs)
    keys: list[Optional[str]] = [
        spec.content_key() if spec.cacheable else None for spec in specs
    ]

    if progress is not None:
        progress.begin(len(specs))

    # Resolve cache hits and intra-call duplicates first.
    first_owner: dict[str, int] = {}
    pending: list[int] = []
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if key is None:
            pending.append(index)
            continue
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
                cached_wall = cache.wall_s(key) or 0.0
                if timings is not None:
                    timings.append(
                        CellTiming(index, spec.label(), 0.0, "cache",
                                   cached_wall)
                    )
                _collect_cell(collector, spec, index, "cache", cached)
                if monitor_session is not None:
                    monitor_session.cell_reused(spec.label(), "cache")
                if progress is not None:
                    progress.cell_done(index, spec.label(), "cache", 0.0)
                continue
        if key in first_owner:
            continue  # duplicate of an earlier pending cell
        first_owner[key] = index
        pending.append(index)

    workers = max(1, min(int(workers), len(pending) or 1))
    # A monitoring session lives in this process (module-level hooks and
    # live sinks don't cross a pool boundary), so monitored cells always
    # execute serially in the parent.
    use_pool = (
        workers > 1
        and monitor_session is None
        and all(_picklable(specs[i]) for i in pending)
    )
    computed_wall: dict[int, float] = {}

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
                        computed_wall[index] = wall
                        if timings is not None:
                            timings.append(
                                CellTiming(
                                    index, specs[index].label(), wall, "pool"
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
            computed_wall[index] = wall
            if timings is not None:
                timings.append(CellTiming(index, spec.label(), wall, "run"))
            _collect_cell(collector, spec, index, "run", results[index])
            if progress is not None:
                progress.cell_done(index, spec.label(), "run", wall)

    # Fill caches and duplicate slots from the computed owners.
    for index in pending:
        key = keys[index]
        if key is not None and cache is not None:
            cache.put(key, results[index], wall_s=computed_wall.get(index))
    for index, key in enumerate(keys):
        if results[index] is None and key is not None:
            owner = first_owner[key]
            results[index] = results[owner]
            owner_wall = computed_wall.get(owner, 0.0)
            if timings is not None:
                timings.append(
                    CellTiming(index, specs[index].label(), 0.0, "dup",
                               owner_wall)
                )
            _collect_cell(collector, specs[index], index, "dup",
                          results[index])
            if monitor_session is not None:
                monitor_session.cell_reused(specs[index].label(), "dup")
            if progress is not None:
                progress.cell_done(index, specs[index].label(), "dup", 0.0)

    if progress is not None:
        progress.end()

    missing = [index for index, result in enumerate(results) if result is None]
    if missing:  # pragma: no cover - defensive
        raise RuntimeError(f"cells {missing} produced no result")
    return results  # type: ignore[return-value]
