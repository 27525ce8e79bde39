"""Run one benchmark workload, check its outputs, and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 25 --trace 0

``--trace 0`` times passes over the workload's cells for ``--seconds`` and
prints the end-to-end metrics (host time, with profiling off).  Pass and
cell times are in reference units (``ref``, see :mod:`reference`), which
follow the shared host's swings in speed; the lines before the result give
the passes in seconds as well.  ``--trace 1`` runs one untraced pass and one
pass under cProfile and prints the per-layer metrics: host self time and
cross-layer call counts per ``repro.<package>``, and the modelled
(simulated, deterministic) statistics of the pass.

Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics by name with their units, the host facts, the digest of
the simulated statistics and every failed check.  A speed-only change leaves
the digest and every modelled metric unchanged for a given seed.

The program under test is imported from ``src/`` beside this directory; the
run fails with exit code 2, printing no result, when it is not there.  A cell
that raises aborts the run with its traceback and exit code 1.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``; their median is kept.
SETUP_SAMPLES = 5
#: Passes per timed run at least, so the in-process repeat check always runs.
MIN_PASSES = 2

LAYER_UNITS = {"self_s": "s", "calls_in": "count"}

MODELLED_UNITS = {
    "workloads.requests": "count",
    "workloads.rounds": "count",
    "gpu.submits": "count",
    "gpu.usage_us": "us",
    "gpu.latency_p95_us": "us",
    "osmodel.faults": "count",
    "neon.engaged_us": "us",
    "neon.disengaged_us": "us",
    "core.token_passes": "count",
    "core.overuse_charged_us": "us",
    "core.denials": "count",
    "core.episodes": "count",
    "obs.trace_records": "count",
    "obs.windows_closed": "count",
    "obs.spans": "count",
    "fleet.jain": "ratio",
    "fleet.migrations": "count",
    "experiments.cells": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "fleet-dense", "monitored"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import the program and build the workload's specs, then exit "
        "(the process timed for setup_s)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import the workloads from ``src/``; None when the program is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError:
        return None
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        return None
    import workloads

    return workloads


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def time_setup(args: argparse.Namespace) -> list[float]:
    """Interpreter start to specs built, in fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which would round every sample up to that grain.
        started = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


def fresh_heap() -> None:
    # Each pass starts from a collected heap, as a fresh invocation would;
    # a previous pass's garbage cycles (a monitored pass leaves its whole
    # retained stream in one) would otherwise slow the next.
    gc.collect()


def gauged_pass(workload):
    """One pass under a reference gauge, and its steps in seconds and ref.

    Each step is ``(seconds, ref)`` from :meth:`reference.Gauge.step`; the
    cells come first, in order.
    """
    fresh_heap()
    with reference.Gauge() as gauge:
        run = workload.run_pass()
    steps = [gauge.step(*span) for span in run.cell_spans + run.other_spans]
    return run, steps, gauge


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten values beyond it.

    Below twenty values it would fall under the median; the maximum stands in.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return ordered[-1], "max"
    return ordered[count - 11], f"p{100.0 * (count - 10) / count:.1f}"


def end_to_end(passes, setup):
    """The end-to-end metrics of gauged passes.

    A pass's time is the sum of its steps; a cell's is its median over the
    passes.
    """
    walls = [sum(ref for _s, ref in steps) for _run, steps, _g in passes]
    wall = statistics.median(walls)
    cells = [
        statistics.median(ref for _s, ref in times)
        for times in zip(*(steps[:len(run.cell_spans)]
                           for run, steps, _g in passes))
    ]
    tail_ref, tail_rank = tail(cells)
    metrics = {
        "wall_ref": (wall, "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "sim_requests_per_ref": (passes[0][0].requests / wall, "1/ref"),
        "cell_p50_ref": (statistics.median(cells), "ref"),
        "cell_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    seconds = [sum(s for s, _ref in steps) for _run, steps, _g in passes]
    slices = [taken for _run, _steps, g in passes for _end, taken in g.slices]
    notes = [
        f"passes {len(passes)} wall_ref each "
        + " ".join(f"{w:.3f}" for w in walls),
        "wall_s each " + " ".join(f"{w:.4f}" for w in seconds),
        f"slices {len(slices)} median_ms "
        f"{1000 * statistics.median(slices):.4f} "
        f"({sum(slices) / sum(seconds):.1%} of the steps' time)",
        f"cells {len(cells)} (cell_tail_ref is {tail_rank})",
        "setup_s each " + " ".join(f"{s:.4f}" for s in setup),
    ]
    return metrics, notes


def per_layer(stats, traced_wall, overhead_x, modelled) -> dict:
    metrics = {}
    for layer, values in layers.fold(stats).items():
        for key, value in values.items():
            metrics[f"{layer}.{key}"] = (value, LAYER_UNITS[key])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_x"] = (overhead_x, "x")
    for name, value in modelled.items():
        metrics[name] = (value, MODELLED_UNITS[name])
    return metrics


def traced_run(workload, profiler, traced_setup):
    """One untraced pass, then one pass under the profiler."""
    fresh_heap()
    started = time.perf_counter()
    untraced = workload.run_pass()
    untraced_pass = time.perf_counter() - started
    fresh_heap()
    started = time.perf_counter()
    profiler.enable()
    traced = workload.run_pass()
    profiler.disable()
    traced_pass = time.perf_counter() - started
    profiler.create_stats()
    traced_wall = traced_setup + traced_pass
    metrics = per_layer(profiler.stats, traced_wall,
                        traced_pass / untraced_pass, untraced.modelled())
    self_sum = sum(value for name, (value, _unit) in metrics.items()
                   if name.endswith(".self_s"))
    gap = abs(self_sum - traced_wall) / traced_wall
    notes = [f"sum of self_s {self_sum:.4f} s vs trace.wall_s "
             f"{traced_wall:.4f} s (gap {gap:.1%}, tolerance "
             f"{layers.SELF_SUM_TOLERANCE:.0%})"]
    problems = []
    if gap > layers.SELF_SUM_TOLERANCE:
        problems.append("layer self times do not add up to trace.wall_s")
    return [untraced, traced], metrics, notes, problems


def timed_run(workload, args):
    """Gauged passes back to back until ``--seconds`` have gone by."""
    setup = time_setup(args)
    workload.prepare()
    passes = []
    started = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - started < args.seconds):
        passes.append(gauged_pass(workload))
    metrics, notes = end_to_end(passes, setup)
    return [run for run, _steps, _gauge in passes], metrics, notes, []


def main(argv=None) -> int:
    args = parse_args(argv)
    # The traced run covers set-up (imports, spec build) and one pass.
    profiler = cProfile.Profile() if args.trace else None
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    workloads = import_program()
    if workloads is None:
        print(f"perfbench: the program is not importable from {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if profiler is not None:
        profiler.disable()
    traced_setup = time.perf_counter() - started
    if args.setup_only:
        return 0

    if profiler is not None:
        workload.prepare()
        passes, metrics, notes, problems = traced_run(
            workload, profiler, traced_setup
        )
    else:
        passes, metrics, notes, problems = timed_run(workload, args)
    if any(len(run.cells) != workload.cell_count for run in passes):
        problems.append("a pass did not return every cell it was given")
    digests = {run.digest() for run in passes}
    if len(digests) != 1:
        problems.append("the same cells gave different digests in one process")
    attempted = sum(len(run.cells) for run in passes)
    failed = sum(len(run.failed_cells) for run in passes)
    failures = sorted({m for run in passes for m in run.failures})

    print(f"host nproc={os.cpu_count()} python={platform.python_version()} "
          f"git={git_sha()}")
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"cells/pass={workload.cell_count}")
    for note in notes:
        print(note)
    print(f"digest {passes[0].digest()}")
    if not args.trace:
        for name, value in passes[0].modelled().items():
            print(f"modelled {name} {value:g} {MODELLED_UNITS[name]}")
    print(f"failed_frac {failed / attempted:g} fraction "
          f"({failed} of {attempted} cells)")
    for message in failures + problems:
        print(f"FAIL {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
