"""The ``repro trace`` subcommand family: record, inspect, export, diff.

Everything here consumes either a JSONL trace file produced by ``record``
(or :func:`repro.obs.export.save_trace`) or records a fresh trace by
running a small simulation inline.  Output is deterministic: same seed,
same trace, same bytes.

    repro trace kinds
    repro trace record --scheduler dfq --apps glxgears,BitonicSort -o t.jsonl
    repro trace summary t.jsonl
    repro trace summary --scheduler dfq --apps glxgears --duration-ms 200
    repro trace export t.jsonl --format chrome -o t.chrome.json
    repro trace filter t.jsonl --kind fault --task glxgears
    repro trace diff left.jsonl right.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

from repro.cli import comma_list, positive
from repro.core import scheduler_registry
from repro.experiments.runner import DEFAULT_DURATION_US, build_env, run_workloads
from repro.faults.plan import FaultPlan
from repro.obs import events
from repro.obs.export import (
    load_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import fold_trace
from repro.obs.summary import diff_counts, diff_tasks
from repro.sim.trace import DEFAULT_TRACE_CAP, TraceRecorder
from repro.workloads.apps import app_instances, make_app
from repro.workloads.profiles import APP_PROFILES


def add_run_options(
    group: "argparse._ActionsContainer",
    duration_help: str = "virtual duration in milliseconds (default: 400)",
) -> None:
    """The inline-run options of ``repro trace record|summary``, ``repro
    why`` and ``repro monitor run``.  An unknown name, an empty
    ``--apps``, a duration not above 0 or an unreadable fault plan is a
    usage error."""
    group.add_argument(
        "--scheduler", choices=sorted(scheduler_registry), default="dfq",
        metavar="NAME", help="scheduler to run (default: dfq)",
    )
    group.add_argument(
        "--apps", type=comma_list(_app_name), default="glxgears,BitonicSort",
        help="comma-separated Table 1 app names; repeat a name for "
        "multiple instances (default: glxgears,BitonicSort)",
    )
    group.add_argument(
        "--duration-ms", type=positive(float), default=None, help=duration_help
    )
    group.add_argument("--seed", type=int, default=0, help="root RNG seed")
    group.add_argument(
        "--fault-plan", type=_fault_plan, default=None, metavar="FILE",
        help="JSON fault plan to install for the run (repro.faults)",
    )


def _app_name(name: str) -> str:
    if name not in APP_PROFILES:
        known = ", ".join(sorted(APP_PROFILES))
        raise argparse.ArgumentTypeError(f"unknown app {name!r}; known: {known}")
    return name


def _fault_plan(path: str) -> FaultPlan:
    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Record, summarize, filter, export, and diff repro traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kinds", help="list the registered trace event kinds")

    record = sub.add_parser(
        "record", help="run a simulation and write its trace as JSONL"
    )
    record.add_argument(
        "-o", "--output", default=None,
        help="output path (default: stdout)",
    )

    summary = sub.add_parser(
        "summary",
        help="per-task activity and the engagement-overhead breakdown",
    )
    summary.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace file; omit to record one inline",
    )
    summary.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the table rendering "
        "(same summary model; 'repro why' consumes this)",
    )
    for inline in (record, summary):
        add_run_options(inline)
        inline.add_argument(
            "--max-records", type=int, default=DEFAULT_TRACE_CAP,
            help="trace ring-buffer capacity (oldest records drop beyond it)",
        )

    filter_cmd = sub.add_parser(
        "filter", help="select records from a JSONL trace (JSONL out)"
    )
    filter_cmd.add_argument("trace", help="JSONL trace file")
    filter_cmd.add_argument(
        "--kind", action="append", default=None,
        help="keep only this kind (repeatable)",
    )
    filter_cmd.add_argument(
        "--task", action="append", default=None,
        help="keep only records whose payload names this task (repeatable)",
    )
    filter_cmd.add_argument(
        "--source", action="append", default=None,
        help="keep only this source (repeatable)",
    )
    filter_cmd.add_argument(
        "--device", action="append", type=int, default=None,
        help="keep only records on this fleet device (repeatable; "
        "records without a device tag count as device 0)",
    )
    filter_cmd.add_argument(
        "--start-us", type=float, default=None, help="keep records at/after"
    )
    filter_cmd.add_argument(
        "--end-us", type=float, default=None, help="keep records at/before"
    )
    filter_cmd.add_argument("-o", "--output", default=None)

    export = sub.add_parser(
        "export", help="convert a JSONL trace (chrome for Perfetto, jsonl)"
    )
    export.add_argument("trace", help="JSONL trace file")
    export.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default: chrome)",
    )
    export.add_argument(
        "--strict", action="store_true",
        help="exit nonzero when the trace lost records to ring-buffer "
        "eviction (the export is still written)",
    )
    export.add_argument(
        "--spans", action="store_true",
        help="chrome format: also emit reconstructed lifecycle spans as "
        "Perfetto async ('b'/'e') events (repro.obs.spans)",
    )
    export.add_argument("-o", "--output", default=None)

    diff = sub.add_parser(
        "diff", help="compare two traces (kind counts and per-task activity)"
    )
    diff.add_argument("left", help="JSONL trace file")
    diff.add_argument("right", help="JSONL trace file")

    return parser


# ----------------------------------------------------------------------
# Inline recording
# ----------------------------------------------------------------------

def record_trace(
    scheduler: str,
    apps: Sequence[str],
    duration_us: float,
    seed: int,
    max_records: Optional[int],
    fault_plan=None,
) -> tuple[TraceRecorder, float]:
    """Run a small simulation with tracing on; returns (trace, end time)."""
    trace = TraceRecorder(max_records=max_records)
    env = build_env(scheduler, seed=seed, trace=trace, fault_plan=fault_plan)
    workloads = [
        make_app(name, instance=instance)
        for name, instance in app_instances(apps)
    ]
    run_workloads(env, workloads, duration_us=duration_us)
    return trace, env.sim.now


def _obtain_trace(args: argparse.Namespace) -> tuple[TraceRecorder, Optional[float]]:
    """A trace from the file argument, or from an inline recording."""
    if getattr(args, "trace", None) is not None:
        return load_trace(args.trace), None
    duration_us = (
        args.duration_ms * 1000.0
        if args.duration_ms is not None
        else DEFAULT_DURATION_US
    )
    return record_trace(
        args.scheduler, args.apps, duration_us, args.seed,
        args.max_records, args.fault_plan,
    )


def _open_output(path: Optional[str]) -> tuple[TextIO, bool]:
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_kinds(_args: argparse.Namespace) -> int:
    for kind in events.registered_kinds():
        spec = events.EVENT_KINDS[kind]
        payload = ", ".join(spec.payload) if spec.payload else "-"
        print(f"{kind:20s} {spec.layer:10s} {spec.description}")
        print(f"{'':20s} {'':10s} payload: {payload}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    trace, _end = _obtain_trace(args)
    stream, close = _open_output(args.output)
    try:
        count = write_jsonl(trace, stream)
    finally:
        if close:
            stream.close()
    if close:
        print(
            f"wrote {count} records ({trace.dropped} dropped) to {args.output}",
            file=sys.stderr,
        )
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    trace, end_us = _obtain_trace(args)
    summary = fold_trace(trace, end_us).summary
    if args.json:
        import json

        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    first, last = summary.span_us
    print(
        f"trace: {summary.records} records"
        f" ({summary.dropped} dropped),"
        f" span {first / 1000.0:.2f}..{last / 1000.0:.2f} ms"
    )
    if summary.dropped:
        print(
            f"WARNING: ring buffer evicted {summary.dropped} records — "
            "this trace is PARTIAL; per-task counts and the overhead "
            "breakdown undercount early activity (raise --max-records "
            "to capture everything)"
        )
    print()
    print("per-task activity:")
    header = (
        f"  {'task':24s} {'submits':>8s} {'completes':>9s} {'faults':>7s} "
        f"{'denials':>7s} {'engaged ms':>11s} {'disengaged ms':>13s} "
        f"{'mean lat us':>11s}"
    )
    print(header)
    for name, task in summary.tasks.items():
        latency = task.mean_latency_us
        latency_text = f"{latency:11.1f}" if latency is not None else f"{'-':>11s}"
        flags = ""
        if task.killed:
            flags = "  [killed]"
        elif task.exited:
            flags = "  [exited]"
        print(
            f"  {name:24s} {task.submits:8d} {task.completes:9d} "
            f"{task.faults:7d} {task.denials:7d} "
            f"{task.engaged_us / 1000.0:11.2f} "
            f"{task.disengaged_us / 1000.0:13.2f} {latency_text}{flags}"
        )
    print()
    print("engagement-overhead breakdown (from trace events alone):")
    total = (end_us if end_us is not None else last) * summary.devices
    for line in overhead_report(summary.breakdown, total):
        print(line)
    if summary.fault_timeline:
        print()
        print("fault/recovery timeline (repro.faults injection + watchdog):")
        for incident in summary.fault_timeline:
            task = incident.task or "-"
            print(
                f"  {incident.time_us / 1000.0:10.2f} ms  "
                f"{incident.kind:16s} {task:16s} {incident.detail}"
            )
    print()
    print("records by kind:")
    for kind, count in sorted(summary.kind_counts.items()):
        print(f"  {kind:24s} {count:8d}")
    return 0


def overhead_report(
    breakdown: dict[str, float], total_us: Optional[float] = None
) -> list[str]:
    """The breakdown's text lines, with percentages of ``total_us`` (the
    run length times the device count; without it, of the accounted
    engagement plus free-run time)."""
    engagement = breakdown.get("engagement_us", 0.0)
    freerun = breakdown.get("freerun_us", 0.0)
    sampling = breakdown.get("sampling_us", 0.0)
    drain = breakdown.get("drain_wait_us", 0.0)
    total = total_us if total_us else engagement + freerun

    def line(label: str, value: float) -> str:
        pct = f"{100.0 * value / total:5.1f}%" if total > 0 else "    -"
        return f"{label:20s}{value / 1000.0:10.2f} ms  {pct}"

    return [
        line("  engagement", engagement),
        line("    drain wait", drain),
        line("    sampling", sampling),
        line("    other (flips)", max(engagement - sampling - drain, 0.0)),
        line("  free-run", freerun),
    ]


def cmd_filter(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    kinds = set(args.kind) if args.kind else None
    tasks = set(args.task) if args.task else None
    sources = set(args.source) if args.source else None
    devices = set(args.device) if args.device else None
    selected = TraceRecorder()
    for record in trace.records(start_us=args.start_us, end_us=args.end_us):
        if kinds is not None and record.kind not in kinds:
            continue
        if sources is not None and record.source not in sources:
            continue
        if tasks is not None and record.payload.get("task") not in tasks:
            continue
        if devices is not None and record.payload.get("device", 0) not in devices:
            continue
        selected.append(record)
    stream, close = _open_output(args.output)
    try:
        count = write_jsonl(selected, stream)
    finally:
        if close:
            stream.close()
    if close:
        print(f"kept {count} of {len(trace)} records", file=sys.stderr)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    stream, close = _open_output(args.output)
    try:
        if args.format == "chrome":
            count = write_chrome_trace(trace, stream, spans=args.spans)
        else:
            count = write_jsonl(trace, stream)
    finally:
        if close:
            stream.close()
    if close:
        print(f"wrote {count} events to {args.output}", file=sys.stderr)
    if args.strict and trace.dropped:
        print(
            f"strict: trace is PARTIAL ({trace.dropped} records evicted "
            "by the ring buffer before recording finished)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    left = load_trace(args.left)
    right = load_trace(args.right)
    count_deltas = diff_counts(left, right)
    task_deltas = diff_tasks(
        fold_trace(left).summary, fold_trace(right).summary
    )
    if not count_deltas and not task_deltas:
        print("traces are equivalent (kind counts and per-task activity)")
        return 0
    if count_deltas:
        print("records by kind:")
        for kind, (left_count, right_count) in count_deltas.items():
            print(f"  {kind:24s} {left_count:8d} -> {right_count:8d}")
    if task_deltas:
        print("per-task activity:")
        for task, deltas in task_deltas.items():
            for name, (left_value, right_value) in sorted(deltas.items()):
                print(
                    f"  {task:24s} {name:16s} "
                    f"{left_value:12.1f} -> {right_value:12.1f}"
                )
    return 1


_COMMANDS = {
    "kinds": cmd_kinds,
    "record": cmd_record,
    "summary": cmd_summary,
    "filter": cmd_filter,
    "export": cmd_export,
    "diff": cmd_diff,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
