"""Span-closure properties under the chaos matrix.

The span layer's contract must hold no matter what the fault injector
does to the run: hangs, kills, aborts, spurious completions, jitter
storms, and whole-device loss.  For every cell of the matrix:

* every opened span closes **exactly once**, with a terminal tag from
  :data:`repro.obs.spans.TERMINALS`;
* each span's components sum EXACTLY (integer microseconds, no epsilon)
  to the sum of its segment durations;
* one submitted request maps to one span — no duplicates, no leaks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.chaos import (
    BYSTANDER,
    VICTIM,
    WARMUP_US,
    builtin_plans,
    chaos_costs,
)
from repro.experiments.runner import build_env, run_workloads
from repro.fleet.experiment import device_loss_plan
from repro.fleet.tenants import FleetTenant
from repro.obs import events
from repro.obs.spans import TERMINALS, build_spans
from repro.sim.trace import TraceRecorder
from repro.workloads.throttle import Throttle

#: Long enough that every targeted plan window (opens at 50ms) fires.
DURATION_US = 200_000.0

PLANS = builtin_plans()

#: The kill/abort-bearing corner of the catalog plus the clean control.
CHAOS_PLANS = ("none", "hang", "refstall-storm", "spurious", "mixed")
SCHEDULERS = ("dfq", "disengaged-timeslice")


def chaos_spans(plan_name, scheduler, seed=0):
    """One traced chaos cell (victim + bystander) -> (trace, SpanSet)."""
    trace = TraceRecorder()
    env = build_env(
        scheduler,
        seed=seed,
        costs=chaos_costs(),
        trace=trace,
        fault_plan=PLANS[plan_name],
    )
    run_workloads(
        env,
        [Throttle(800.0, name=VICTIM), Throttle(800.0, name=BYSTANDER)],
        duration_us=DURATION_US,
        warmup_us=WARMUP_US,
    )
    return trace, build_spans(trace, env.sim.now)


def assert_closure(trace, span_set):
    """The closure properties every cell must satisfy."""
    spans = span_set.spans
    assert spans
    # Closed exactly once: terminals always set and valid, identities
    # unique (a double-close would mint a duplicate span).
    for span in spans:
        assert span.terminal in TERMINALS
    identities = [
        (span.task, span.device, span.channel, span.ref, span.start_us)
        for span in spans
    ]
    assert len(identities) == len(set(identities))
    assert len({span.span_id for span in spans}) == len(spans)
    # One submit == one request span (handler-only spans have ref=None).
    submits = sum(
        1 for record in trace.records()
        if record.kind == events.REQUEST_SUBMIT
    )
    assert sum(1 for span in spans if span.ref is not None) == submits
    # Exact decomposition, component by component.
    for span in spans:
        segment_total = sum(seg.duration_us for seg in span.segments)
        assert sum(span.components.values()) == segment_total  # +-0 us
        assert all(value >= 0 for value in span.components.values())


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("plan_name", CHAOS_PLANS)
def test_chaos_matrix_spans_close_exactly_once(plan_name, scheduler):
    trace, span_set = chaos_spans(plan_name, scheduler)
    assert_closure(trace, span_set)


def test_kill_bearing_plan_actually_kills_and_spans_still_close():
    # Guard against the matrix silently testing only the happy path: the
    # runaway-hang plan must actually terminate the victim's context.
    trace, span_set = chaos_spans("hang", "dfq")
    kills = [
        record for record in trace.records()
        if record.kind in (events.CONTEXT_KILLED, events.TASK_KILLED)
    ]
    assert kills
    victim = span_set.select(task=VICTIM)
    assert victim
    assert {span.terminal for span in victim} <= set(TERMINALS)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8)
def test_closure_holds_across_seeds(seed):
    trace, span_set = chaos_spans("mixed", "dfq", seed=seed)
    assert_closure(trace, span_set)


def test_device_loss_closes_every_span_on_the_lost_device():
    trace = TraceRecorder()
    env = build_env(
        devices=2,
        scheduler="dfq",
        seed=0,
        trace=trace,
        fault_plan=device_loss_plan(0, 60_000.0),
    )
    tenants = [
        FleetTenant(f"t{i:03d}", request_size_us=800.0) for i in range(4)
    ]
    run_workloads(env, tenants, 150_000.0, 10_000.0)
    span_set = build_spans(trace, env.sim.now)
    assert_closure(trace, span_set)
    lost = span_set.select(device=0)
    assert lost
    # Nothing on the dead device may linger: each span has a terminal,
    # and every one ends at or before the simulation's end.
    assert all(span.end_us <= env.sim.now for span in lost)
