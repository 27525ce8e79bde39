#!/usr/bin/env python3
"""Quickstart: two applications sharing a GPU under four schedulers.

Builds a simulated system (GPU device, kernel, interception layer), runs
the DCT benchmark against a large-request Throttle microbenchmark, and
shows how each scheduler divides the device: direct access lets the
batcher win; the paper's schedulers restore the fair ~2x/2x split.

Run:  python examples/quickstart.py
"""

from repro import Throttle, build_env, make_app, run_workloads
from repro.experiments import CellSpec, WorkloadSpec
from repro.metrics.tables import format_table

DURATION_US = 300_000.0  # 300 ms of simulated time
WARMUP_US = 60_000.0


def main() -> None:
    # 1. Measure each application alone under direct device access — the
    #    baseline every slowdown is computed against.
    dct_alone = CellSpec.solo(
        WorkloadSpec.app("DCT"), DURATION_US, WARMUP_US
    ).run()["DCT"]
    throttle_alone = CellSpec.solo(
        WorkloadSpec.throttle(1700.0, name="throttle"), DURATION_US, WARMUP_US
    ).run()["throttle"]
    print(
        f"standalone: DCT round = {dct_alone.rounds.mean_us:.0f}us, "
        f"Throttle round = {throttle_alone.rounds.mean_us:.0f}us\n"
    )

    # 2. Run them together under each scheduler.
    rows = []
    for scheduler in ("direct", "timeslice", "disengaged-timeslice", "dfq"):
        env = build_env(scheduler, seed=1)
        dct = make_app("DCT")
        throttle = Throttle(1700.0, name="throttle")
        run_workloads(env, [dct, throttle], DURATION_US, WARMUP_US)
        rows.append(
            [
                scheduler,
                dct.round_stats(WARMUP_US).mean_us / dct_alone.rounds.mean_us,
                throttle.round_stats(WARMUP_US).mean_us
                / throttle_alone.rounds.mean_us,
                int(env.metrics.counter("faults").total),
                int(env.metrics.counter("submits").total),
            ]
        )

    print(
        format_table(
            ["scheduler", "DCT slowdown", "throttle slowdown", "faults", "submissions"],
            rows,
            title="DCT vs Throttle(1.7ms): fair sharing is ~2x for both",
        )
    )
    print(
        "\nNote how the disengaged schedulers intercept only a fraction of"
        " submissions\nwhile matching the engaged scheduler's fairness."
    )


if __name__ == "__main__":
    main()
