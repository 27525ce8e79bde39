#!/usr/bin/env python3
"""Seeing a scheduler's interleaving: ASCII timelines.

Captures submit/complete traces for DCT vs a large-request Throttle under
three schedulers and renders each interleaving as an ASCII timeline —
direct access shows ragged request-granular alternation dominated by the
big requests, the timeslice scheduler shows clean exclusive slices, and
DFQ shows free-run mixing punctuated by engagement barriers.

Run:  python examples/timeline_visualization.py
"""

from repro import Throttle, build_env, make_app, run_workloads
from repro.analysis.timeline import (
    TIMELINE_KINDS,
    build_timeline,
    render_ascii_timeline,
)

DURATION_US = 200_000.0
WINDOW = (120_000.0, 160_000.0)  # the 40 ms slice of time to draw


def main() -> None:
    shares = []
    for scheduler in ("direct", "disengaged-timeslice", "dfq"):
        env = build_env(scheduler, seed=4, trace_kinds=TIMELINE_KINDS)
        dct = make_app("DCT")
        throttle = Throttle(1700.0, name="throttle")
        run_workloads(env, [dct, throttle], DURATION_US, 0.0)
        timeline = build_timeline(env.trace, start_us=WINDOW[0], end_us=WINDOW[1])
        print(f"--- {scheduler} ---")
        print(render_ascii_timeline(timeline, width=76))
        print()
        shares.append((scheduler, timeline.share("DCT")))

    print("DCT's share of device time in the window:")
    for scheduler, share in shares:
        print(f"  {scheduler:22s} {'#' * round(40 * share):40s} {share:.2f}")


if __name__ == "__main__":
    main()
