"""The benchmark's three workloads, each driving the public entry points.

Every workload is a closed-loop batch: its cells run back to back in this
process, serially (``workers=1``) and with no result cache, so every cell
is computed; inside each cell every simulated application is itself
closed-loop (its next round starts when the previous one completes).  The
seed goes only into the cell specs.  Every warmup is shorter than its
horizon.

A pass runs a workload's cells once and returns a :class:`Pass`: the
canonical per-cell results (``result_to_jsonable``), the host clock at the
start and end of each step (each computed cell, and the span fold on
``monitored``), output-check failures attributed to cells, and the
modelled statistics.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.reference import PAPER
from repro.experiments import figure4, figure6
from repro.experiments.parallel import result_to_jsonable
from repro.experiments.progress import CellProgress, progressing
from repro.fleet.experiment import (
    FleetCellSpec,
    check_fleet_invariants,
    summarize_fleet,
    tenant_specs,
)
from repro.obs import events
from repro.obs.monitor import MonitorSession, monitoring
from repro.obs.slo import SloRule
from repro.obs.spans import build_spans
from repro.obs.store import RunCollector, collecting
from repro.obs.windows import WindowConfig
from repro.sim.trace import TraceRecorder
from repro.workloads.profiles import APP_PROFILES

#: Figure horizon and warmup (virtual µs).  At 120 ms every claim below is
#: in band on seeds 0-25; figure4's and figure6's default warmup is kept.
FIGURE_HORIZON_US = 120_000.0
FIGURE_WARMUP_US = 60_000.0

#: fleet-dense: 100 jittered Throttle tenants over 4 devices (25 channels
#: per device) under DFQ, a few seeds per pass.
FLEET_DEVICES = 4
FLEET_TENANTS = 100
FLEET_JITTER = 0.3
FLEET_SEEDS_PER_PASS = 3
FLEET_HORIZON_US = 1_000_000.0
FLEET_WARMUP_US = 100_000.0

#: monitored: tumbling windows, one tail-latency rule, retained stream.
MONITOR_WINDOW_US = 5_000.0
MONITOR_P99_US = 2_000.0

#: Counters the monitor adds to the registry a monitored run shares; they
#: are excluded when comparing monitored cells with unmonitored ones.
MONITOR_COUNTERS = ("windows_closed", "slo_violations", "slo_recoveries")


@dataclass
class Pass:
    """One run of a workload's cells."""

    cells: list[dict] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    #: Host clock at the start and end of each computed cell, in order.
    cell_spans: list[tuple[float, float]] = field(default_factory=list)
    #: The same for the pass's steps other than cells.
    other_spans: list[tuple[float, float]] = field(default_factory=list)
    #: Output-check failures: message -> indices of the cells behind it.
    failures: dict[str, set[int]] = field(default_factory=dict)
    #: Modelled statistics the cells alone do not carry (obs, fleet).
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, message: str, cells) -> None:
        self.failures.setdefault(message, set()).update(cells)

    @property
    def failed_cells(self) -> set[int]:
        return set().union(*self.failures.values()) if self.failures else set()

    @property
    def requests(self) -> int:
        return sum(
            result["requests_submitted"]
            for cell in self.cells
            for result in cell.values()
        )

    def digest(self) -> str:
        """sha256 over the canonical JSON of every cell's results."""
        payload = json.dumps(self.cells, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def modelled(self) -> dict[str, float]:
        """Simulated statistics: deterministic for a given seed."""
        results = [result for cell in self.cells for result in cell.values()]

        def total(metric: str) -> float:
            return sum(r["metrics"].get(metric, 0.0) for r in results)

        values = {
            "workloads.requests": self.requests,
            "workloads.rounds": sum(r["rounds"]["count"] for r in results),
            "gpu.submits": total("submits"),
            "gpu.usage_us": sum(r["ground_truth_usage_us"] for r in results),
            "gpu.latency_p95_us": max(
                r["metrics"].get("request_latency_us_p95", 0.0)
                for r in results
            ),
            "osmodel.faults": total("faults"),
            "neon.engaged_us": total("engaged_us"),
            "neon.disengaged_us": total("disengaged_us"),
            "core.token_passes": total("token_passes"),
            "core.overuse_charged_us": total("overuse_charged_us"),
            "core.denials": total("denials"),
            "core.episodes": total("episodes"),
            "obs.trace_records": 0,
            "obs.windows_closed": 0,
            "obs.spans": 0,
            "fleet.jain": 0.0,
            "fleet.migrations": total("fleet_moves"),
            "experiments.cells": len(self.cells),
        }
        values.update(self.extra)
        return values


def _collected(collector: RunCollector) -> list[dict]:
    """The collector's cells in spec order."""
    return sorted(collector.cells, key=lambda cell: cell["index"])


def _check_cells(run: Pass) -> None:
    """Every workload of every cell completed a finite, positive round."""
    for index, cell in enumerate(run.cells):
        for name, result in cell.items():
            rounds = result["rounds"]
            if not (rounds["count"] > 0 and math.isfinite(rounds["mean_us"])
                    and rounds["mean_us"] > 0):
                run.fail(f"{run.labels[index]}: {name} has no finite rounds",
                         [index])


def _check_claim(run: Pass, key: str, value: float, cells) -> None:
    claim = PAPER[key]
    if not claim.accepts(value):
        run.fail(
            f"{key} = {value:.4g} outside [{claim.low:g}, {claim.high:g}]",
            cells,
        )


def _check_figure4(run: Pass, rows: list, cells: int) -> None:
    """Finite figure values, and the two standalone-overhead claims.

    figure4 comes first in a pass and lays out per app a direct baseline
    then one cell per scheduler, so app ``i``'s cells start at
    ``i * stride``.
    """
    stride = 1 + len(figure4.SCHEDULERS)
    if len(rows) * stride != cells:
        run.fail("figure4: row count does not match its cells", range(cells))
    worst: dict[str, tuple[float, int, int]] = {}
    for i, row in enumerate(rows):
        base = i * stride
        values = [row.direct_round_us, *row.slowdowns.values()]
        if not all(math.isfinite(v) for v in values):
            run.fail(f"figure4: {row.app} has a non-finite value",
                     range(base, base + stride))
        for j, scheduler in enumerate(figure4.SCHEDULERS):
            slowdown = row.slowdowns[scheduler]
            if scheduler not in worst or slowdown > worst[scheduler][0]:
                worst[scheduler] = (slowdown, base + 1 + j, base)
    for key, scheduler in (
        ("fig4_dts_max_overhead", "disengaged-timeslice"),
        ("fig4_dfq_max_overhead", "dfq"),
    ):
        value, cell, base = worst[scheduler]
        _check_claim(run, key, value, [base, cell])


def _check_figure6(run: Pass, outcomes: list, offset: int) -> None:
    """Finite figure values, and direct access's DCT-vs-large-Throttle gap.

    figure6 lays out the app baselines, the Throttle baselines, then the
    app x size x scheduler grid in the order of ``outcomes``.
    """
    apps, sizes = figure6.PAIR_APPS, figure6.THROTTLE_SIZES_US
    grid = offset + len(apps) + len(sizes)
    if len(outcomes) != len(run.cells) - grid:
        run.fail("figure6: outcome count does not match its cells",
                 range(offset, len(run.cells)))
    for k, outcome in enumerate(outcomes):
        cells = [
            offset + apps.index(outcome.app),
            offset + len(apps) + sizes.index(outcome.throttle_size_us),
            grid + k,
        ]
        values = (outcome.app_alone_us, outcome.app_concurrent_us,
                  outcome.throttle_alone_us, outcome.throttle_concurrent_us)
        if not all(math.isfinite(v) and v > 0 for v in values):
            run.fail(f"figure6: {outcome.app}/{outcome.throttle_size_us:g}us/"
                     f"{outcome.scheduler} has a non-finite value", cells)
        if (outcome.scheduler == "direct" and outcome.app == "DCT"
                and outcome.throttle_size_us == max(sizes)):
            _check_claim(run, "fig6_direct_dct_large_throttle",
                         outcome.app_slowdown, cells)


def _figure4_specs(seed: int) -> list:
    return figure4.cell_specs(
        FIGURE_HORIZON_US, FIGURE_WARMUP_US, seed, sorted(APP_PROFILES),
        figure4.SCHEDULERS,
    )


class _CellSpans(CellProgress):
    """Records each computed ``run_cells`` cell's span; renders to memory."""

    def __init__(self, run: Pass) -> None:
        super().__init__(stream=io.StringIO())
        self.run = run
        self._started = 0.0

    def cell_running(self, index, label) -> None:
        super().cell_running(index, label)
        self._started = time.perf_counter()

    def cell_done(self, index, label, source, wall_s) -> None:
        super().cell_done(index, label, source, wall_s)
        if source == "run":
            self.run.cell_spans.append((self._started, time.perf_counter()))


def _figure4(seed: int):
    """``figure4.run`` with every cell's results collected."""
    collector = RunCollector("figure4")
    with collecting(collector):
        rows = figure4.run(
            duration_us=FIGURE_HORIZON_US, warmup_us=FIGURE_WARMUP_US,
            seed=seed, workers=1, cache=None,
        )
    return rows, collector


def _finish(run: Pass, collectors) -> None:
    for collector in collectors:
        for cell in _collected(collector):
            run.cells.append(cell["workloads"])
            run.labels.append(cell["label"])


class Figures:
    """figure4's and figure6's full cell sets through their ``run``."""

    name = "figures"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cell_count = len(_figure4_specs(seed)) + len(
            figure6.cell_specs(FIGURE_HORIZON_US, FIGURE_WARMUP_US, seed)
        )

    def prepare(self) -> None:
        pass

    def run_pass(self) -> Pass:
        run = Pass()
        collector6 = RunCollector("figure6")
        with progressing(_CellSpans(run)):
            rows, collector4 = _figure4(self.seed)
            with collecting(collector6):
                outcomes = figure6.run(
                    duration_us=FIGURE_HORIZON_US,
                    warmup_us=FIGURE_WARMUP_US, seed=self.seed, workers=1,
                    cache=None,
                )
        _finish(run, (collector4, collector6))
        _check_cells(run)
        _check_figure4(run, rows, len(collector4.cells))
        _check_figure6(run, outcomes, offset=len(collector4.cells))
        return run


class FleetDense:
    """Dense DFQ fleets: many channels per device, few long cells."""

    name = "fleet-dense"

    def __init__(self, seed: int) -> None:
        tenants = tenant_specs(FLEET_TENANTS, jitter_sigma=FLEET_JITTER)
        self.specs = [
            FleetCellSpec(
                devices=FLEET_DEVICES,
                scheduler="dfq",
                workloads=tenants,
                duration_us=FLEET_HORIZON_US,
                warmup_us=FLEET_WARMUP_US,
                seed=seed * FLEET_SEEDS_PER_PASS + k,
                placement="least-loaded",
                policy="fleet-fair",
            )
            for k in range(FLEET_SEEDS_PER_PASS)
        ]
        self.cell_count = len(self.specs)

    def prepare(self) -> None:
        pass

    def run_pass(self) -> Pass:
        run = Pass()
        jains = []
        for index, spec in enumerate(self.specs):
            started = time.perf_counter()
            results = spec.run()
            run.cell_spans.append((started, time.perf_counter()))
            run.cells.append({
                name: result_to_jsonable(results[name])
                for name in sorted(results)
            })
            run.labels.append(spec.label())
            for violation in check_fleet_invariants(results):
                run.fail(f"{spec.label()}: {violation}", [index])
            summary = summarize_fleet(results)
            if summary.killed:
                run.fail(f"{spec.label()}: {summary.killed} tenants killed",
                         [index])
            jains.append(summary.jain)
        _check_cells(run)
        run.extra["fleet.jain"] = sum(jains) / len(jains)
        return run


class Monitored:
    """figure4's cells under a MonitorSession, then the span fold."""

    name = "monitored"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.window = WindowConfig(window_us=MONITOR_WINDOW_US)
        self.rules = (SloRule("p99-ceiling", "tail_latency", MONITOR_P99_US),)
        self.cell_count = len(_figure4_specs(seed))
        self.reference: list[dict] = []

    def prepare(self) -> None:
        """The unmonitored run of the same cells, for comparison."""
        _rows, collector = _figure4(self.seed)
        self.reference = [cell["workloads"] for cell in _collected(collector)]

    def run_pass(self) -> Pass:
        run = Pass()
        stream = TraceRecorder()
        session = MonitorSession(self.window, self.rules,
                                 record_stream=stream)
        with progressing(_CellSpans(run)), monitoring(session):
            rows, collector = _figure4(self.seed)
        started = time.perf_counter()
        spans = build_spans(stream)
        run.other_spans.append((started, time.perf_counter()))
        _finish(run, (collector,))
        _check_cells(run)
        _check_figure4(run, rows, len(run.cells))
        self._check_same_as_unmonitored(run)
        self._check_spans(run, stream, spans)
        run.extra.update({
            "obs.trace_records": len(stream),
            "obs.windows_closed": session.windows_closed,
            "obs.spans": len(spans.spans),
        })
        return run

    def _check_same_as_unmonitored(self, run: Pass) -> None:
        for index, (cell, plain) in enumerate(zip(run.cells, self.reference)):
            stripped = {
                name: {
                    **result,
                    "metrics": {
                        key: value for key, value in result["metrics"].items()
                        if key not in MONITOR_COUNTERS
                        or key in plain[name]["metrics"]
                    },
                }
                for name, result in cell.items()
            }
            if stripped != plain:
                run.fail(f"{run.labels[index]}: monitored result differs "
                         "from the unmonitored run", [index])

    @staticmethod
    def _check_spans(run: Pass, stream: TraceRecorder, spans) -> None:
        """Each request that reached the device closes exactly one span.

        ``requests_submitted`` counts requests a workload issued, which
        includes any still on the doorbell path at the horizon, so it
        bounds the span count from above rather than equalling it.
        """
        reached = Counter(
            record.payload.get("task")
            for record in stream.records()
            if record.kind == events.REQUEST_SUBMIT
        )
        closed = Counter(s.task for s in spans.spans if s.ref is not None)
        opened = Counter(s.task for s in spans.spans)
        keys = Counter(
            (s.device, s.channel, s.ref) for s in spans.spans
            if s.ref is not None
        )
        issued: Counter = Counter()
        for cell in run.cells:
            for name, result in cell.items():
                issued[name] += result["requests_submitted"]
        for task in sorted(set(reached) | set(closed) | set(issued)):
            if reached[task] != closed[task] or opened[task] > issued[task]:
                run.fail(
                    f"spans: {task} reached the device {reached[task]} times "
                    f"but closed {closed[task]} submitted spans "
                    f"({opened[task]} spans, {issued[task]} issued)",
                    [i for i, cell in enumerate(run.cells) if task in cell],
                )
        if any(count > 1 for count in keys.values()):
            run.fail("spans: a submitted request closed more than one span",
                     range(len(run.cells)))


WORKLOADS = {cls.name: cls for cls in (Figures, FleetDense, Monitored)}
