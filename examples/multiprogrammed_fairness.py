#!/usr/bin/env python3
"""Multiprogrammed fairness at four-way scale (the Figure 8 scenario).

One large-request Throttle competes with three small-request OpenCL
applications.  With direct access, the Throttle's 1.7 ms requests dominate
the hardware's per-request round-robin; Disengaged Fair Queueing brings
everyone to the expected ~4-5x slowdown while staying mostly disengaged.

Run:  python examples/multiprogrammed_fairness.py
"""

from repro import build_env, run_workloads
from repro.experiments import CellSpec, WorkloadSpec
from repro.metrics.efficiency import concurrency_efficiency
from repro.metrics.fairness import jain_index
from repro.metrics.tables import format_table

DURATION_US = 500_000.0
WARMUP_US = 100_000.0
APPS = ("BinarySearch", "DCT", "FFT")


MIX = tuple(WorkloadSpec.app(name) for name in APPS) + (
    WorkloadSpec.throttle(1700.0, name="throttle"),
)


def main() -> None:
    baselines = {}
    for spec in MIX:
        baselines.update(CellSpec.solo(spec, DURATION_US, WARMUP_US).run())

    rows = []
    for scheduler in ("direct", "disengaged-timeslice", "dfq"):
        env = build_env(scheduler, seed=3)
        workloads = [spec.build() for spec in MIX]
        run_workloads(env, workloads, DURATION_US, WARMUP_US)
        slowdowns = {
            w.name: w.round_stats(WARMUP_US).mean_us
            / baselines[w.name].rounds.mean_us
            for w in workloads
        }
        shares = [
            env.device.task_usage(w.task) for w in workloads
        ]
        efficiency = concurrency_efficiency(
            (baselines[w.name].rounds.mean_us, w.round_stats(WARMUP_US).mean_us)
            for w in workloads
        )
        rows.append(
            [scheduler]
            + [slowdowns[name] for name in (*APPS, "throttle")]
            + [jain_index(shares), efficiency]
        )

    print(
        format_table(
            ["scheduler", *APPS, "throttle", "Jain index", "efficiency"],
            rows,
            title="Four-way sharing: slowdowns (fair ~4-5x), usage fairness, efficiency",
        )
    )


if __name__ == "__main__":
    main()
