"""``repro why``: root-cause attribution for tail latency.

The PR-8 monitors *detect* (a violated p99, a fairness-floor breach);
this command answers **why**, from the causal span layer
(:mod:`repro.obs.spans`):

* which delay component dominated the offending window — scheduler
  queue-wait, device queue contention, execution, fault-recovery stall,
  or migration cost — with its share of the window's total span time;
* which tenants interfered (engine occupancy overlapping the victim's
  wait), ranked;
* the victim's critical span: where the single worst request's time went.

Three ways to point it at a run::

    repro why --scheduler dfq --apps glxgears,BitonicSort    # inline run
    repro why trace.jsonl --window-us 10000                  # replay
    repro why trace.jsonl --report monitor-report.json       # fired SLO

With ``--report`` the offending window and victim come from the first
fired SLO violation of a ``repro monitor`` report; otherwise the worst
p99 window is located by scanning ``--window-us`` bins.  The run
overview is consumed from the machine-readable trace summary (the same
model as ``repro trace summary --json``).

The last stdout line is stable and greppable (CI asserts on it)::

    WHY dominant=<component> share=<pct>% task=<task> window=<s>-<e>us top=<tenant>
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.cli import _obtain_trace
from repro.obs.spans import (
    COMPONENT_LABELS,
    COMPONENTS,
    Span,
    SpanSet,
    build_spans,
)
from repro.obs.summary import summarize
from repro.obs.windows import nearest_rank, split_tenant

#: Default attribution window width (µs) when no report pins one.
DEFAULT_WINDOW_US = 10_000.0


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro why",
        description=(
            "Attribute tail latency to its dominant delay component and "
            "the interfering tenants, from reconstructed lifecycle spans."
        ),
    )
    parser.add_argument(
        "trace", nargs="?", default=None,
        help="JSONL trace file; omit to record a run inline",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="repro monitor JSON report: attribute the first fired SLO "
        "violation's window instead of scanning for the worst p99",
    )
    parser.add_argument(
        "--task", default=None,
        help="victim tenant (default: from the SLO event, or the task "
        "with the worst windowed p99)",
    )
    parser.add_argument(
        "--device", type=int, default=None,
        help="restrict attribution to one fleet device",
    )
    parser.add_argument(
        "--window-us", type=float, default=DEFAULT_WINDOW_US,
        help=f"attribution window width in µs (default: "
        f"{DEFAULT_WINDOW_US:g}; ignored when --report pins a window)",
    )
    parser.add_argument(
        "--top", type=int, default=3,
        help="interfering tenants to list (default: 3)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable attribution instead of the text rendering",
    )
    run = parser.add_argument_group("inline run (no trace file)")
    run.add_argument("--scheduler", default="dfq",
                     help="scheduler to run (default: dfq)")
    run.add_argument(
        "--apps", default="glxgears,BitonicSort",
        help="comma-separated Table 1 app names; repeat a name for "
        "multiple instances (default: glxgears,BitonicSort)",
    )
    run.add_argument("--duration-ms", type=float, default=None,
                     help="virtual duration in milliseconds (default: 400)")
    run.add_argument("--seed", type=int, default=0, help="root RNG seed")
    run.add_argument(
        "--max-records", type=int, default=None,
        help="trace ring-buffer capacity for the inline run "
        "(default: unbounded — spans need the whole stream)",
    )
    run.add_argument(
        "--fault-plan", default=None, metavar="FILE",
        help="JSON fault plan to install for the inline run",
    )
    return parser


# ----------------------------------------------------------------------
# Window/victim selection
# ----------------------------------------------------------------------

def _span_latency(span: Span) -> float:
    """The latency a span contributes to windowed quantiles: the full
    lifecycle duration.  Deliberately NOT the device-observed
    ``latency_us`` (submit -> complete): that misses pre-submit kernel
    blocking, and a request held 70 ms on a scheduler token would be
    invisible to the scan."""
    return float(span.duration_us)


def worst_window(
    span_set: SpanSet,
    window_us: float,
    task: Optional[str] = None,
    device: Optional[int] = None,
) -> Optional[tuple[str, float, float, float]]:
    """Scan fixed windows for the worst per-task p99.

    Returns ``(task, start_us, end_us, p99)`` or None when no window
    holds a completed span."""
    if window_us <= 0:
        raise ValueError("window_us must be positive")
    worst: Optional[tuple[str, float, float, float]] = None
    windows = max(1, math.ceil(span_set.end_us / window_us))
    for index in range(windows):
        start = index * window_us
        end = start + window_us
        by_task: dict[str, list[float]] = {}
        for span in span_set.select(
            task=task, device=device, start_us=start, end_us=end,
            terminal="complete",
        ):
            by_task.setdefault(span.task, []).append(_span_latency(span))
        for name in sorted(by_task):
            p99 = nearest_rank(by_task[name], 0.99)
            if worst is None or p99 > worst[3]:
                worst = (name, start, end, p99)
    return worst


def _report_violation(
    report: dict[str, Any], task: Optional[str] = None
) -> Optional[dict[str, Any]]:
    """The first fired violation in a monitor (or session) report,
    optionally restricted to one victim tenant."""
    events = list(report.get("slo_events", ()))
    for run in report.get("runs", ()):
        events.extend(run.get("slo_events", ()))
    for event in events:
        if event.get("event") != "violation":
            continue
        if task is not None and split_tenant(event.get("task") or "")[0] != task:
            continue
        return event
    return None


def _window_bounds_from_report(
    report: dict[str, Any], event: dict[str, Any], fallback_us: float
) -> tuple[float, float]:
    """The violated window's ``[start, end)`` from the report's snapshot
    list, falling back to the report (or CLI) window width."""
    index = event.get("window")
    snapshots = list(report.get("windows", ()))
    for run in report.get("runs", ()):
        snapshots.extend(run.get("windows", ()))
    for snapshot in snapshots:
        if snapshot.get("index") == index:
            return float(snapshot["start_us"]), float(snapshot["end_us"])
    end = float(event.get("end_us", 0.0))
    width = float(report.get("window_us", fallback_us))
    return end - width, end


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def attribute_window(
    span_set: SpanSet,
    task: str,
    start_us: float,
    end_us: float,
    device: Optional[int] = None,
    top: int = 3,
) -> dict[str, Any]:
    """Decompose the victim's spans ending in the window and rank the
    interfering tenants."""
    spans = span_set.select(
        task=task, device=device, start_us=start_us, end_us=end_us,
    )
    components = span_set.decompose(spans)
    total = sum(components.values())
    dominant = max(
        COMPONENTS, key=lambda label: (components.get(label, 0),),
    ) if total else None
    share = (
        components.get(dominant, 0) / total * 100.0
        if dominant is not None and total else 0.0
    )
    blame = span_set.blame(spans)
    worst = max(spans, key=lambda span: span.duration_us, default=None)
    latencies = [
        _span_latency(span) for span in spans if span.terminal == "complete"
    ]
    return {
        "task": task,
        "device": device,
        "window": [start_us, end_us],
        "spans": len(spans),
        "total_us": total,
        "p99_us": nearest_rank(latencies, 0.99) if latencies else None,
        "components": components,
        "dominant": dominant,
        "dominant_share_pct": share,
        "interference": [
            {"task": name, "overlap_us": overlap}
            for name, overlap in list(blame.items())[:top]
        ],
        "critical_span": worst.to_dict() if worst is not None else None,
    }


def _render(attribution: dict[str, Any], overview: dict[str, Any]) -> None:
    task = attribution["task"]
    start, end = attribution["window"]
    print(f"why: task {task}, window [{start:g}, {end:g}) us")
    summary_task = overview["tasks"].get(task)
    if summary_task is not None:
        mean = summary_task["mean_latency_us"]
        mean_text = f"{mean:.0f} us" if mean is not None else "-"
        print(
            f"  run overview: {summary_task['submits']} submits, "
            f"{summary_task['completes']} completes, "
            f"{summary_task['faults']} faults, mean latency {mean_text}"
        )
    p99 = attribution["p99_us"]
    p99_text = f", window p99 {p99:.0f} us" if p99 is not None else ""
    print(
        f"  spans ending in window: {attribution['spans']}, "
        f"decomposed {attribution['total_us']} us{p99_text}"
    )
    total = attribution["total_us"]
    if not total:
        print("  no spans to attribute in this window")
        return
    print("  decomposition:")
    for label in COMPONENTS:
        value = attribution["components"].get(label, 0)
        if not value:
            continue
        print(
            f"    {label:10s} {value:10d} us  ({value / total * 100.0:5.1f}%)"
            f"  {COMPONENT_LABELS[label]}"
        )
    dominant = attribution["dominant"]
    print(
        f"  dominant: {dominant} ({attribution['dominant_share_pct']:.1f}%) "
        f"— {COMPONENT_LABELS[dominant]}"
    )
    if attribution["interference"]:
        ranked = ", ".join(
            f"{entry['task']} ({entry['overlap_us']} us)"
            for entry in attribution["interference"]
        )
        print(f"  top interfering tenants: {ranked}")
    critical = attribution["critical_span"]
    if critical is not None:
        chain = " -> ".join(
            f"{label} {end_us - start_us}us"
            for label, start_us, end_us in critical["segments"]
        )
        print(
            f"  critical span: ref {critical['ref']} "
            f"({critical['terminal']}, {sum(critical['components'].values())}"
            f" us): {chain}"
        )


def blame_line(attribution: dict[str, Any]) -> str:
    """The stable, greppable verdict line."""
    start, end = attribution["window"]
    top = (
        attribution["interference"][0]["task"]
        if attribution["interference"] else "-"
    )
    dominant = attribution["dominant"] or "-"
    return (
        f"WHY dominant={dominant} "
        f"share={attribution['dominant_share_pct']:.1f}% "
        f"task={attribution['task']} "
        f"window={start:g}-{end:g}us top={top}"
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def cmd_why(args: argparse.Namespace) -> int:
    trace, end_us = _obtain_trace(args)
    if trace.dropped:
        print(
            f"warning: trace is PARTIAL ({trace.dropped} records evicted); "
            "spans reconstructed from what the buffer retained",
            file=sys.stderr,
        )
    overview = summarize(trace, end_us=end_us).to_dict()
    span_set = build_spans(trace, end_us)
    device = args.device
    if args.report is not None:
        report = json.loads(Path(args.report).read_text(encoding="utf-8"))
        event = _report_violation(report, task=args.task)
        if event is None:
            scope = f" for task {args.task}" if args.task else ""
            print(f"why: the report contains no fired SLO violation{scope}",
                  file=sys.stderr)
            return 2
        start, end = _window_bounds_from_report(
            report, event, args.window_us
        )
        victim = args.task
        if victim is None:
            victim, event_device = split_tenant(event.get("task") or "")
            if device is None:
                device = event_device
        if not victim:
            print(
                "why: the fired SLO is window-scoped (no victim tenant); "
                "pass --task to pick one",
                file=sys.stderr,
            )
            return 2
        if not args.json:
            print(
                f"why: attributing SLO violation rule={event.get('rule')} "
                f"({event.get('slo_kind')}) value={event.get('value'):g} "
                f"threshold={event.get('threshold'):g}"
            )
    else:
        found = worst_window(
            span_set, args.window_us, task=args.task, device=device,
        )
        if found is None:
            print("why: no completed spans to attribute", file=sys.stderr)
            return 2
        victim, start, end, _p99 = found
    attribution = attribute_window(
        span_set, victim, start, end, device=device, top=args.top,
    )
    if args.json:
        print(json.dumps(attribution, indent=2, sort_keys=True))
        return 0
    _render(attribution, overview)
    print(blame_line(attribution))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return cmd_why(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
