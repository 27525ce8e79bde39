"""Command-line interface: ``repro <experiment> [--duration-ms N] [--seed N]``.

Runs any paper experiment and prints its table.  ``repro list`` shows the
catalog; ``repro all`` regenerates everything (slow).  ``repro claims``
scores every paper claim in :data:`repro.analysis.reference.PAPER` at the
claim's own scale, prints one scoreboard line per claim, and exits 1 if
any misses its band.  ``repro staticcheck``
runs the neonlint static analyzer (see docs/STATIC_ANALYSIS.md).
``repro trace`` records, summarizes, filters, exports, and diffs
structured traces; ``repro monitor`` runs any experiment
with streaming windowed metrics and SLO monitors over the live trace
stream (see docs/OBSERVABILITY.md); ``repro why`` attributes tail
latency (or a fired SLO) to its dominant delay component and the
interfering tenants via reconstructed lifecycle spans.

Cell-farm experiments (all but figure2, cpu and section6) accept
``--workers N`` to fan independent simulation cells out over a process
pool, and share results by content key within one invocation, so solo
baselines are computed once (``repro all`` reuses them across figures).  ``--no-cache``
disables sharing; results are never kept across invocations.  Tables on
stdout are byte-identical regardless of worker count or sharing; the
per-cell wall-time summary goes to stderr.

:func:`positive` and :func:`comma_list` are the argument types shared
with the ``repro chaos``, ``repro fleet``, ``repro trace``, ``repro why``
and ``repro monitor`` parsers.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable, Optional, Sequence

from repro.experiments.parallel import (
    CellTiming,
    ResultCache,
    format_cell_timings,
)

from repro.experiments import (
    ablations,
    cpu_contention,
    overhead_breakdown,
    preemption,
    sensitivity,
    figure2,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    protection,
    section3_throughput,
    section6_dos,
    table1,
)

EXPERIMENTS: dict[str, tuple[Callable[..., str], str]] = {
    "table1": (table1.main, "benchmark characteristics (round/request sizes)"),
    "figure2": (figure2.main, "request inter-arrival and service CDFs"),
    "section3": (
        section3_throughput.main,
        "direct-access vs trap-per-request throughput",
    ),
    "figure4": (figure4.main, "standalone slowdown per app per scheduler"),
    "figure5": (figure5.main, "standalone Throttle slowdown vs request size"),
    "figure6": (figure6.main, "pairwise fairness (app vs Throttle)"),
    "figure7": (figure7.main, "pairwise concurrency efficiency"),
    "figure8": (figure8.main, "four-way fairness and efficiency"),
    "figure9": (figure9.main, "nonsaturating fairness"),
    "figure10": (figure10.main, "nonsaturating efficiency"),
    "protection": (protection.main, "infinite-loop kill and greedy batcher"),
    "section6": (section6_dos.main, "channel-exhaustion DoS and quota defense"),
    "ablations": (ablations.main, "vendor stats, free-run multiplier, baselines"),
    "preemption": (
        preemption.main,
        "section 6.2 what-if: hardware preemption + runlist masking",
    ),
    "breakdown": (
        overhead_breakdown.main,
        "where DFQ's overhead goes (drain wait vs sampling)",
    ),
    "cpu": (
        cpu_contention.main,
        "single-core host: management CPU load (section 5.2 claim)",
    ),
    "sensitivity": (
        sensitivity.main,
        "configuration-parameter sensitivity (section 5.2 claim)",
    ),
}


def checked(
    convert: Callable[[str], Any], accept: Callable[[Any], bool], rule: str
) -> Callable[[str], Any]:
    """Argument type: ``convert(text)``, a usage error unless ``accept``
    holds for it (``rule`` says what is expected)."""

    def parse(text: str) -> Any:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in its errors
    return parse


def positive(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """Argument type: ``convert(text)``, a usage error unless above 0."""
    return checked(convert, lambda value: value > 0, "> 0")


def non_negative(convert: Callable[[str], Any]) -> Callable[[str], Any]:
    """Argument type: ``convert(text)``, a usage error if below 0."""
    return checked(convert, lambda value: value >= 0, ">= 0")


def comma_list(convert: Callable[[str], Any] = str) -> Callable[[str], list]:
    """Argument type: a comma-separated list, a usage error when empty."""

    def parse(text: str) -> list:
        items = [convert(part.strip()) for part in text.split(",")
                 if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list, got {text!r}"
            )
        return items

    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Disengaged Scheduling (ASPLOS 2014) evaluation.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', 'all', or 'claims'",
    )
    parser.add_argument(
        "--duration-ms",
        type=positive(float),
        default=None,
        help="simulated duration per run in milliseconds (default: per-experiment)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for experiments built on the cell farm "
        "(default: 1 = serial; output is identical either way)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared result cache (every cell recomputes)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="live per-cell status on stderr while the cell farm runs "
        "(plain lines when stderr is not a TTY); stdout is unchanged",
    )
    return parser


def _warmup_us(runner: Callable[..., str]) -> Optional[float]:
    """The longest ``warmup_us`` default among the driver module's functions.

    Drivers run their cells with these defaults, so a horizon at or below
    it leaves no measured rounds.
    """
    module = inspect.getmodule(runner)
    defaults = [
        param.default
        for function in vars(module).values()
        if inspect.isfunction(function)
        and function.__module__ == module.__name__
        for param in [inspect.signature(function).parameters.get("warmup_us")]
        if param is not None and isinstance(param.default, (int, float))
    ]
    return max(defaults, default=None)


def _call_experiment(
    runner: Callable[..., str],
    args: argparse.Namespace,
    cache: Optional[ResultCache],
    timings: list[CellTiming],
) -> None:
    """Invoke a driver, passing only the keywords its signature accepts.

    Experiments without cells (figure2, cpu, section6) simply never see
    the farm parameters.  A ``--duration-ms`` inside the driver's warmup gets
    one warning on stderr; stdout is unchanged.
    """
    kwargs: dict = {"seed": args.seed}
    if args.duration_ms is not None:
        kwargs["duration_us"] = args.duration_ms * 1000.0
        warmup_us = _warmup_us(runner)
        if warmup_us is not None and kwargs["duration_us"] <= warmup_us:
            print(
                f"warning: {runner.__module__.rsplit('.', 1)[-1]}: "
                f"--duration-ms {args.duration_ms:g} is inside its "
                f"{warmup_us / 1000.0:g} ms warmup; rows with no measured "
                "rounds print '-'",
                file=sys.stderr,
            )
    if "farm" in inspect.signature(runner).parameters:
        kwargs["workers"] = args.workers
        kwargs["cache"] = cache
        kwargs["timings"] = timings
    runner(**kwargs)


def _claims(args: argparse.Namespace, cache: Optional[ResultCache]) -> int:
    """Score every paper claim; 1 if any lands outside its band."""
    from repro.analysis import reference

    measured = reference.measure(reference.PAPER.values(), seed=args.seed,
                                 workers=args.workers, cache=cache)
    print(reference.shape_report(measured))
    in_band = all(reference.PAPER[key].accepts(value)
                  for key, value in measured.items())
    return 0 if in_band else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "staticcheck":
        # Delegate to the neonlint CLI, which owns its own flags
        # (--format, --changed, --list-rules) and exit-code contract.
        from repro.staticcheck.cli import main as staticcheck_main

        return staticcheck_main(argv[1:])
    if argv and argv[0] == "trace":
        # Likewise the trace analysis CLI (record/summary/export/diff).
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "monitor":
        # Streaming windowed metrics + SLO monitors over a live run.
        from repro.obs.monitor import main as monitor_main

        return monitor_main(argv[1:])
    if argv and argv[0] == "chaos":
        # And the fault-injection chaos matrix (matrix/run/plans); it is
        # deliberately not part of EXPERIMENTS so ``repro all`` output
        # stays byte-identical with the fault subsystem merged.
        from repro.experiments.chaos import cli_main as chaos_main

        return chaos_main(argv[1:])
    if argv and argv[0] == "why":
        # Root-cause attribution for tail latency from reconstructed
        # lifecycle spans.
        from repro.obs.why import main as why_main

        return why_main(argv[1:])
    if argv and argv[0] == "fleet":
        # Multi-GPU fleet scenarios (run/chaos/policies/placements); like
        # chaos, kept out of EXPERIMENTS so ``repro all`` is unchanged.
        from repro.fleet.cli import main as fleet_main

        return fleet_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:12s} {description}")
        return 0
    if args.experiment == "claims":
        # Kept out of EXPERIMENTS, so ``repro all`` output is unchanged.
        if args.duration_ms is not None:
            parser.error("claims takes no --duration-ms: each claim's "
                         "scale is part of the claim")
        names = []
    else:
        names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; try 'repro list'",
            file=sys.stderr,
        )
        return 2
    # One cache for the whole invocation: ``repro all`` shares the solo
    # direct-access baselines across figure4/5, figure6/7, and figure9/10.
    cache: Optional[ResultCache] = None if args.no_cache else {}
    if args.progress:
        from contextlib import ExitStack

        from repro.experiments.progress import CellProgress, progressing

        stack = ExitStack()
        stack.enter_context(progressing(CellProgress()))
    else:
        stack = None
    try:
        if args.experiment == "claims":
            return _claims(args, cache)
        for name in names:
            runner, _ = EXPERIMENTS[name]
            print(f"== {name} ==")
            timings: list[CellTiming] = []
            _call_experiment(runner, args, cache, timings)
            if timings:
                print(f"[{name}] {format_cell_timings(timings)}", file=sys.stderr)
            print()
    finally:
        if stack is not None:
            stack.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
