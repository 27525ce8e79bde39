#!/usr/bin/env python3
"""CI gate: the span layer is pure observation — never a perturbation.

Three comparisons, any mismatch exits 1:

1. **Passivity** — an identical run with a live :class:`TraceFold`
   attached as a trace sink must produce ``WorkloadResult``s and a
   trace stream that compare equal, field for field, to the run
   without it (the fold subscribes; it must not steer).
2. **Live == replay** — spans reconstructed incrementally by the live
   sink must serialize byte-identically to spans rebuilt from the
   exported JSONL of the same run (the acceptance property: analysis
   is a pure function of the stream, whichever way the stream arrives).
3. **Eviction independence** — a ring-buffer-capped recorder that has
   evicted most of its records must still yield the same spans through
   its live sink as the uncapped replay, because sinks observe every
   record before eviction (the same guarantee PR-8's windows rely on).
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import build_env, run_workloads  # noqa: E402
from repro.obs.export import read_jsonl, write_jsonl  # noqa: E402
from repro.obs.spans import TraceFold, build_spans  # noqa: E402
from repro.sim.trace import TraceRecorder  # noqa: E402
from repro.workloads.apps import make_app  # noqa: E402

DURATION_US = 200_000.0
SEED = 0
CAP = 256  # far below this run's record count: forces heavy eviction


def traced_run(trace):
    env = build_env("dfq", seed=SEED, trace=trace)
    results = run_workloads(
        env,
        [make_app("glxgears"), make_app("BitonicSort")],
        duration_us=DURATION_US,
    )
    return env, results


def canonical(span_set):
    return json.dumps(span_set.to_dict(), sort_keys=True)


def fail(message: str) -> None:
    print(f"spans identity gate FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> int:
    # Leg 1: no span machinery anywhere near the run.
    plain_trace = TraceRecorder()
    _, plain_results = traced_run(plain_trace)

    # Leg 2: same run with a live fold subscribed.
    live_trace = TraceRecorder()
    fold = TraceFold()
    live_trace.add_sink(fold)
    env, live_results = traced_run(live_trace)

    if sorted(plain_results) != sorted(live_results):
        fail("task sets differ with a span sink attached")
    for name in plain_results:
        if plain_results[name] != live_results[name]:
            fail(f"result for {name!r} changed with a span sink attached:\n"
                 f"  off: {plain_results[name]}\n  on:  {live_results[name]}")
    plain_records = list(plain_trace.records())
    live_records = list(live_trace.records())
    if plain_records != live_records:
        fail("trace stream changed with a span sink attached")

    # Live vs replay over the identical stream.
    live_set = fold.finish(env.sim.now).spans
    buffer = io.StringIO()
    write_jsonl(live_trace, buffer)
    buffer.seek(0)
    replay_set = build_spans(read_jsonl(buffer), env.sim.now)
    if canonical(live_set) != canonical(replay_set):
        fail("live-sink spans differ from JSONL-replay spans")

    # Eviction independence: capped recorder, live sink only.
    capped_trace = TraceRecorder(max_records=CAP)
    capped_fold = TraceFold()
    capped_trace.add_sink(capped_fold)
    capped_env, _ = traced_run(capped_trace)
    if capped_trace.dropped == 0:
        fail(f"cap {CAP} evicted nothing; gate is vacuous")
    capped_set = capped_fold.finish(capped_env.sim.now).spans
    if canonical(capped_set) != canonical(live_set):
        fail(f"spans changed under ring-buffer eviction "
             f"(cap {CAP}, {capped_trace.dropped} dropped)")

    print(
        f"spans identity gate: {len(live_set.spans)} spans, "
        f"{len(live_records)} records, {capped_trace.dropped} evicted in "
        "the capped leg — span layer is passive, replay-stable, and "
        "eviction-independent"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
