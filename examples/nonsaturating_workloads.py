#!/usr/bin/env python3
"""Work conservation with nonsaturating workloads (Figures 9/10).

A Throttle that sleeps 80% of the time shares the GPU with DCT.  Timeslice
schedulers idle the device through the sleeper's unused slices; Disengaged
Fair Queueing co-schedules during free-run periods, so DCT absorbs the
idle time at no fairness cost.

Run:  python examples/nonsaturating_workloads.py
"""

from repro import Throttle, build_env, make_app, run_workloads
from repro.experiments import CellSpec, WorkloadSpec
from repro.metrics.tables import format_table

DURATION_US = 400_000.0
WARMUP_US = 80_000.0
SLEEP_RATIOS = (0.0, 0.4, 0.8)


def main() -> None:
    dct_alone = CellSpec.solo(
        WorkloadSpec.app("DCT"), DURATION_US, WARMUP_US
    ).run()["DCT"]
    rows = []
    for ratio in SLEEP_RATIOS:
        throttle_alone = CellSpec.solo(
            WorkloadSpec.throttle(66.0, sleep_ratio=ratio, name="thr"),
            DURATION_US,
            WARMUP_US,
        ).run()["thr"]
        for scheduler in ("timeslice", "dfq"):
            env = build_env(scheduler, seed=2)
            dct = make_app("DCT")
            throttle = Throttle(66.0, sleep_ratio=ratio, name="thr")
            run_workloads(env, [dct, throttle], DURATION_US, WARMUP_US)
            dct_x = dct.round_stats(WARMUP_US).mean_us / dct_alone.rounds.mean_us
            thr_x = (
                throttle.round_stats(WARMUP_US).mean_us
                / throttle_alone.rounds.mean_us
            )
            efficiency = 1.0 / dct_x + 1.0 / thr_x
            rows.append([f"{ratio:.0%}", scheduler, dct_x, thr_x, efficiency])
    print(
        format_table(
            ["sleep ratio", "scheduler", "DCT slowdown", "thr slowdown", "efficiency"],
            rows,
            title="Nonsaturating co-runner: DFQ stays work-conserving "
            "(fair = nobody far beyond 2x)",
        )
    )


if __name__ == "__main__":
    main()
