"""Live monitoring: streaming windows + SLO rules over running simulations.

Glue between the pure aggregation layers and the rest of the system:

* :class:`Monitor` — one run's monitoring rig: a ``retain=False``
  :class:`~repro.sim.trace.TraceRecorder` (pure stream fan-out, so
  unbounded horizons cost no memory), a
  :class:`~repro.obs.windows.WindowAggregator` subscribed as a live
  sink, an :class:`~repro.obs.slo.SloEngine` evaluated at every window
  close, and a :class:`~repro.obs.metrics.MetricsRegistry` the
  simulation shares.  Window closes and SLO transitions are emitted
  *back into the trace* as registered kinds (``window.close``,
  ``slo.violation``, ``slo.recovered``) and bumped as counters
  (``windows_closed``, ``slo_violations``, ``slo_recoveries``).
* :class:`MonitorSession` — installs monitoring for a whole CLI
  invocation via :func:`monitoring`; the experiment runner asks
  :func:`active_monitor` per run (one ``is None`` check when off, so
  monitor-off runs stay byte-identical), and the cell farm runs
  serially under a session (module-level hooks do not survive a
  process-pool boundary).
* the ``repro monitor`` CLI — run any experiment or an inline
  simulation with ``--window-us`` windows, live per-window stderr
  rendering (through the ``--progress`` ticker when installed) and a
  JSON report.

The monitored experiment's stdout tables stay byte-identical to the
unmonitored run: every monitor line goes to stderr, the report to a
file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.obs import events
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEngine, SloEvent, SloRule, load_rules
from repro.obs.windows import (
    WindowAggregator,
    WindowConfig,
    WindowSnapshot,
    split_tenant,
)
from repro.sim.trace import TraceRecorder

#: Default window width for the CLI (µs).
DEFAULT_WINDOW_US = 5_000.0


class Monitor:
    """One run's monitoring rig; see the module docstring."""

    def __init__(
        self,
        window: WindowConfig,
        rules: Sequence[SloRule] = (),
        label: str = "",
        line_sink: Optional[Callable[[str], None]] = None,
        render_windows: bool = True,
        keep_snapshots: Optional[int] = None,
        id_counters: Optional[dict] = None,
    ) -> None:
        self.label = label
        #: Entity numbering for the run's simulator (``Simulator``'s
        #: ``id_counters``); a session passes one dict to all its runs.
        self.id_counters = id_counters if id_counters is not None else {}
        self.line_sink = line_sink
        self.render_windows = render_windows
        self.trace = TraceRecorder(retain=False)
        self.metrics = MetricsRegistry()
        self.aggregator = WindowAggregator(window)
        self.aggregator.keep_snapshots = keep_snapshots
        self.engine = SloEngine(rules)
        self.slo_events: list[SloEvent] = []
        self.aggregator.on_window(self._window_closed)
        self.trace.add_sink(self.aggregator)
        # Back-reference the runner uses to number the run's entities and
        # to finalize before snapshotting metrics (duck-typed: the runner
        # must not import this module).
        self.trace.monitor = self

    # -- window-close fan-out ------------------------------------------
    def _window_closed(self, snapshot: WindowSnapshot) -> None:
        self.metrics.inc("windows_closed")
        trace = self.trace
        # Single-device runs never produce ``name@dN`` keys, so their
        # monitor events carry no device field and stay byte-identical.
        devices = sorted({
            device
            for tenant in snapshot.tenants
            if (device := split_tenant(tenant)[1]) is not None
        })
        window_extra: dict[str, Any] = {"devices": devices} if devices else {}
        trace.emit(
            snapshot.end_us, "monitor", events.WINDOW_CLOSE,
            window=snapshot.index,
            start_us=snapshot.start_us,
            end_us=snapshot.end_us,
            tenants=len(snapshot.tenants),
            jain=None if math.isnan(snapshot.jain) else snapshot.jain,
            **window_extra,
        )
        transitions = self.engine.observe(snapshot)
        for event in transitions:
            self.slo_events.append(event)
            violated = event.event == "violation"
            self.metrics.inc(
                "slo_violations" if violated else "slo_recoveries",
                event.task,
            )
            device = split_tenant(event.task)[1]
            slo_extra: dict[str, Any] = (
                {"device": device} if device is not None else {}
            )
            trace.emit(
                snapshot.end_us, "monitor",
                events.SLO_VIOLATION if violated else events.SLO_RECOVERED,
                rule=event.rule, slo_kind=event.slo_kind, task=event.task,
                window=event.window, value=event.value,
                threshold=event.threshold,
                violated_windows=event.violated_windows,
                **slo_extra,
            )
        if self.line_sink is not None:
            if self.render_windows:
                self.line_sink(format_window_line(snapshot, self.label))
            for event in transitions:
                self.line_sink(format_slo_line(event, self.label))

    def finalize(self, end_us: Optional[float] = None) -> None:
        """Close the final (possibly partial) window; idempotent."""
        if end_us is None:
            # Safety net for aborted runs: flush whole buckets only.
            end_us = self.aggregator._bucket.start_us
        self.aggregator.finish(end_us)

    @property
    def violations(self) -> int:
        return self.engine.violations

    @property
    def recoveries(self) -> int:
        return self.engine.recoveries

    def report(self) -> dict[str, Any]:
        """JSON-able summary of everything this monitor observed."""
        return {
            "label": self.label,
            "windows_closed": self.aggregator.windows_closed,
            "violations": self.violations,
            "recoveries": self.recoveries,
            "active_violations": [
                {"rule": rule, "task": task}
                for rule, task in self.engine.active_violations
            ],
            "slo_events": [event.to_dict() for event in self.slo_events],
            "windows": [
                snapshot.to_dict() for snapshot in self.aggregator.snapshots
            ],
        }


# ----------------------------------------------------------------------
# Line rendering (stderr; reuses the --progress ticker when installed)
# ----------------------------------------------------------------------

def format_window_line(snapshot: WindowSnapshot, label: str = "") -> str:
    jain = "-" if math.isnan(snapshot.jain) else f"{snapshot.jain:.3f}"
    parts = [
        f"window {snapshot.index:>4d}",
        f"{snapshot.start_us / 1000.0:.1f}-{snapshot.end_us / 1000.0:.1f}ms",
        f"jain={jain}",
    ]
    shown = 0
    for name in sorted(snapshot.tenants):
        p99 = snapshot.tenants[name].latency_quantile(
            0.99, snapshot.latency_bin_us
        )
        if p99 is None:
            continue
        if shown >= 4:
            parts.append("...")
            break
        parts.append(f"p99[{name}]={p99:.0f}us")
        shown += 1
    prefix = f"[{label}] " if label else ""
    return prefix + " ".join(parts)


def format_slo_line(event: SloEvent, label: str = "") -> str:
    prefix = f"[{label}] " if label else ""
    verb = "SLO VIOLATION" if event.event == "violation" else "SLO recovered"
    subject = event.task or "<window>"
    return (
        f"{prefix}{verb} {event.slo_kind} rule={event.rule} task={subject} "
        f"window={event.window} value={event.value:g} "
        f"threshold={event.threshold:g}"
    )


# ----------------------------------------------------------------------
# Session: monitoring across a whole invocation
# ----------------------------------------------------------------------

class MonitorSession:
    """Monitoring configuration + accumulated per-run reports.

    Installed with :func:`monitoring`; the experiment runner calls
    :meth:`begin_run` for every simulation it builds while the session
    is active and :meth:`end_run` when it finishes.
    """

    def __init__(
        self,
        window: WindowConfig,
        rules: Sequence[SloRule] = (),
        line_sink: Optional[Callable[[str], None]] = None,
        render_windows: bool = True,
        keep_snapshots: Optional[int] = None,
        record_stream: Optional[TraceRecorder] = None,
    ) -> None:
        self.window = window
        self.rules = tuple(rules)
        self.line_sink = line_sink
        self.render_windows = render_windows
        self.keep_snapshots = keep_snapshots
        #: Optional retaining tee of every monitored run's full stream
        #: (simulation records plus monitor-emitted window/SLO events),
        #: exported by ``--trace-out`` for offline span reconstruction.
        self.record_stream = record_stream
        self.monitors: list[Monitor] = []
        #: One entity numbering for all the session's runs: their records
        #: meet in ``record_stream``, where no two channels may share an id.
        self.id_counters: dict = {}
        self.reused: list[dict[str, str]] = []
        # Label the cell farm announces for the next run (one-shot).
        self._next_label: Optional[str] = None

    def begin_cell(self, label: str) -> None:
        """The cell farm is about to execute a cell with this label."""
        self._next_label = label

    def cell_reused(self, label: str, source: str) -> None:
        """A cell resolved from cache/dedup: no fresh run to monitor."""
        self.reused.append({"label": label, "source": source})

    def begin_run(self, label: Optional[str] = None) -> Monitor:
        if label is None:
            label = self._next_label or f"run-{len(self.monitors) + 1}"
        self._next_label = None
        monitor = Monitor(
            self.window, self.rules, label=label,
            line_sink=self.line_sink,
            render_windows=self.render_windows,
            keep_snapshots=self.keep_snapshots,
            id_counters=self.id_counters,
        )
        if self.record_stream is not None:
            monitor.trace.add_sink(self.record_stream.append)
        self.monitors.append(monitor)
        return monitor

    def end_run(self, monitor: Monitor) -> None:
        monitor.finalize()

    @property
    def violations(self) -> int:
        return sum(monitor.violations for monitor in self.monitors)

    @property
    def recoveries(self) -> int:
        return sum(monitor.recoveries for monitor in self.monitors)

    @property
    def windows_closed(self) -> int:
        return sum(
            monitor.aggregator.windows_closed for monitor in self.monitors
        )

    def report(self) -> dict[str, Any]:
        return {
            "window_us": self.window.window_us,
            "slide_us": self.window.effective_slide_us,
            "latency_bin_us": self.window.latency_bin_us,
            "rules": [rule.to_dict() for rule in self.rules],
            "windows_closed": self.windows_closed,
            "violations": self.violations,
            "recoveries": self.recoveries,
            "reused_cells": list(self.reused),
            "runs": [monitor.report() for monitor in self.monitors],
        }


#: Module-level active session; None unless ``repro monitor`` installs one.
_ACTIVE: Optional[MonitorSession] = None


def active_monitor() -> Optional[MonitorSession]:
    """The installed monitoring session, or None when monitoring is off."""
    return _ACTIVE


@contextmanager
def monitoring(session: MonitorSession) -> Iterator[MonitorSession]:
    """Install ``session`` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


# ----------------------------------------------------------------------
# The ``repro monitor`` CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro monitor",
        description=(
            "Run an experiment (or an inline simulation) with streaming "
            "windowed metrics and SLO monitors over the live trace stream."
        ),
    )
    parser.add_argument(
        "target",
        help="experiment name (as in 'repro list'), 'run' for an inline "
        "simulation, or 'rules' to list the SLO rule kinds",
    )
    windowing = parser.add_argument_group("windowing")
    windowing.add_argument(
        "--window-us", type=float, default=DEFAULT_WINDOW_US,
        help=f"window width in microseconds (default: {DEFAULT_WINDOW_US:g})",
    )
    windowing.add_argument(
        "--slide-us", type=float, default=None,
        help="slide in microseconds for sliding windows (default: tumbling; "
        "the window must be an integer multiple of the slide)",
    )
    windowing.add_argument(
        "--latency-bin-us", type=float, default=50.0,
        help="fixed latency bin width for deterministic quantiles "
        "(default: 50)",
    )
    slo = parser.add_argument_group("SLO rules")
    slo.add_argument(
        "--slo", metavar="FILE", default=None,
        help="JSON rule file (a list of rules, or {\"rules\": [...]})",
    )
    slo.add_argument(
        "--slo-p99-us", type=float, default=None, metavar="US",
        help="tail-latency ceiling: violate when a tenant's windowed p99 "
        "exceeds this many microseconds",
    )
    slo.add_argument(
        "--slo-jain-floor", type=float, default=None, metavar="J",
        help="fairness floor: violate when a window's Jain index drops "
        "below this",
    )
    slo.add_argument(
        "--slo-starvation-us", type=float, default=None, metavar="US",
        help="starvation: violate when a tenant shows demand but "
        "completes nothing and is attributed at most this many us of share",
    )
    slo.add_argument(
        "--slo-overuse-us", type=float, default=None, metavar="US",
        help="overuse budget: violate when a tenant is charged more "
        "overuse than this per window (watchdog escalations also count)",
    )
    slo.add_argument(
        "--slo-for-windows", type=int, default=1, metavar="N",
        help="consecutive violating windows before inline rules fire "
        "(default: 1)",
    )
    output = parser.add_argument_group("output")
    output.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the full JSON report (windows + SLO events) here",
    )
    output.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit nonzero when any SLO violation fired",
    )
    output.add_argument(
        "--quiet", action="store_true",
        help="suppress per-window stderr lines (SLO transitions still "
        "print)",
    )
    output.add_argument(
        "--progress", action="store_true",
        help="cell-farm progress ticker on stderr; monitor lines render "
        "through it",
    )
    output.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="export the monitored trace stream (all runs, including the "
        "monitor's own window/SLO records) as JSONL; feed it to "
        "'repro why FILE --report ...' for root-cause attribution",
    )
    output.add_argument(
        "--keep-windows", type=int, default=None, metavar="N",
        help="retain at most N window snapshots per run in memory and in "
        "the report (default: all)",
    )
    run = parser.add_argument_group("simulation (experiment and 'run' mode)")
    run.add_argument(
        "--duration-ms", type=float, default=None,
        help="simulated duration per run in milliseconds "
        "(default: per-experiment)",
    )
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--scheduler", default="dfq",
        help="'run' mode: scheduler to run (default: dfq)",
    )
    run.add_argument(
        "--apps", default="glxgears,BitonicSort",
        help="'run' mode: comma-separated Table 1 app names",
    )
    run.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="'run' mode: JSON fault plan to install",
    )
    run.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="'run' mode: builtin chaos plan name (victim + bystander mix "
        "under chaos costs; see 'repro chaos plans')",
    )
    return parser


def rules_from_args(args: argparse.Namespace) -> list[SloRule]:
    rules: list[SloRule] = []
    if args.slo is not None:
        rules.extend(load_rules(Path(args.slo)))
    hold = args.slo_for_windows
    if args.slo_p99_us is not None:
        rules.append(SloRule(
            "p99-ceiling", "tail_latency", args.slo_p99_us,
            for_windows=hold, quantile=0.99,
        ))
    if args.slo_jain_floor is not None:
        rules.append(SloRule(
            "jain-floor", "fairness_floor", args.slo_jain_floor,
            for_windows=hold,
        ))
    if args.slo_starvation_us is not None:
        rules.append(SloRule(
            "starvation", "starvation", args.slo_starvation_us,
            for_windows=hold,
        ))
    if args.slo_overuse_us is not None:
        rules.append(SloRule(
            "overuse-budget", "overuse_budget", args.slo_overuse_us,
            for_windows=hold, max_escalations=0,
        ))
    return rules


def _line_sink(line: str) -> None:
    """Stderr renderer; routes through the --progress ticker when one is
    installed so in-place TTY status lines are not corrupted."""
    from repro.experiments.progress import active_progress

    progress = active_progress()
    if progress is not None:
        progress.note(line)
    else:
        print(line, file=sys.stderr)


def session_from_args(args: argparse.Namespace) -> MonitorSession:
    window = WindowConfig(
        window_us=args.window_us,
        slide_us=args.slide_us,
        latency_bin_us=args.latency_bin_us,
    )
    record_stream = (
        TraceRecorder() if getattr(args, "trace_out", None) is not None
        else None
    )
    return MonitorSession(
        window,
        rules_from_args(args),
        line_sink=_line_sink,
        render_windows=not args.quiet,
        keep_snapshots=args.keep_windows,
        record_stream=record_stream,
    )


def cmd_rules(_args: argparse.Namespace) -> int:
    descriptions = {
        "starvation": (
            "tenant shows demand (submits/faults/denials) but completes "
            "nothing and receives <= threshold us of share"
        ),
        "fairness_floor": "window Jain index over tenant shares < threshold",
        "tail_latency": (
            "tenant's windowed latency quantile > threshold us"
        ),
        "overuse_budget": (
            "tenant charged > threshold us overuse per window, or exceeds "
            "the escalation budget (max_escalations)"
        ),
    }
    for kind, description in descriptions.items():
        print(f"{kind:16s} {description}")
    print()
    print("rule schema: {name, kind, threshold, for_windows?, quantile?, "
          "max_escalations?}")
    return 0


def _run_inline(args: argparse.Namespace, session: MonitorSession) -> None:
    """'run' mode: one monitored simulation, no table output."""
    from dataclasses import replace

    if args.chaos is not None:
        from repro.experiments.chaos import builtin_plans, chaos_cell

        catalog = builtin_plans()
        if args.chaos not in catalog:
            known = ", ".join(sorted(catalog))
            raise KeyError(
                f"unknown chaos plan {args.chaos!r}; known: {known}"
            )
        spec = chaos_cell(catalog[args.chaos], args.scheduler, seed=args.seed)
        if args.duration_ms is not None:
            spec = replace(spec, duration_us=args.duration_ms * 1000.0)
    else:
        from repro.experiments.cells import CellSpec, WorkloadSpec
        from repro.experiments.runner import (
            DEFAULT_DURATION_US,
            DEFAULT_WARMUP_US,
        )

        fault_plan = None
        if args.fault_plan is not None:
            from repro.faults.plan import FaultPlan

            fault_plan = FaultPlan.load(args.fault_plan)
        names = [name.strip() for name in args.apps.split(",") if name.strip()]
        if not names:
            raise ValueError("--apps needs at least one application name")
        counts: dict[str, int] = {}
        workloads = []
        for name in names:
            seen = counts.get(name, 0)
            counts[name] = seen + 1
            instance = None if seen == 0 else f"{name}.{seen + 1}"
            workloads.append(WorkloadSpec.app(name, instance=instance))
        duration_us = (
            args.duration_ms * 1000.0 if args.duration_ms is not None
            else DEFAULT_DURATION_US
        )
        spec = CellSpec(
            scheduler=args.scheduler,
            workloads=tuple(workloads),
            duration_us=duration_us,
            warmup_us=min(DEFAULT_WARMUP_US, duration_us / 4),
            seed=args.seed,
            fault_plan=fault_plan,
        )
    session.begin_cell(spec.label())
    spec.run()


def _run_experiment(args: argparse.Namespace, session: MonitorSession) -> None:
    """Experiment mode: stdout mirrors ``repro <name>`` byte-for-byte."""
    from repro.cli import EXPERIMENTS, _call_experiment
    from repro.experiments.parallel import CellTiming, format_cell_timings

    runner, _description = EXPERIMENTS[args.target]
    print(f"== {args.target} ==")
    timings: list[CellTiming] = []
    # Monitored cells always run serially in this process (the cell farm
    # refuses to pool them), so the farm parameter is fixed at 1.
    args.workers = 1
    # cache=None: a monitored run must execute every cell to observe it.
    _call_experiment(runner, args, cache=None, timings=timings)
    if timings:
        print(
            f"[{args.target}] {format_cell_timings(timings)}", file=sys.stderr
        )
    print()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "rules":
        return cmd_rules(args)
    if args.target != "run":
        from repro.cli import EXPERIMENTS

        if args.target not in EXPERIMENTS:
            known = ", ".join(EXPERIMENTS)
            print(
                f"unknown target {args.target!r}; expected 'run', 'rules', "
                f"or an experiment ({known})",
                file=sys.stderr,
            )
            return 2

    session = session_from_args(args)
    with ExitStack() as stack:
        if args.progress:
            from repro.experiments.progress import CellProgress, progressing

            stack.enter_context(progressing(CellProgress()))
        stack.enter_context(monitoring(session))
        if args.target == "run":
            _run_inline(args, session)
        else:
            _run_experiment(args, session)

    print(
        f"monitor: {session.windows_closed} windows, "
        f"{session.violations} violations, "
        f"{session.recoveries} recoveries "
        f"across {len(session.monitors)} runs",
        file=sys.stderr,
    )
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(session.report(), indent=2, sort_keys=True) + "\n"
        )
        print(f"monitor: report written to {args.report}", file=sys.stderr)
    if args.trace_out is not None and session.record_stream is not None:
        from repro.obs.export import save_trace

        count = save_trace(session.record_stream, args.trace_out)
        print(
            f"monitor: {count} trace records written to {args.trace_out}",
            file=sys.stderr,
        )
    if args.fail_on_violation and session.violations:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
