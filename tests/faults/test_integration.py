"""End-to-end fault behavior: determinism, identity, and the watchdog ladder.

The two ISSUE-level guarantees live here: the same plan + seed replays an
identical trace (checked with the ``repro trace diff`` machinery), and a
run with no fault plan is indistinguishable from one that never imported
the subsystem.
"""

from repro.core.hardening import RUNAWAY_REASON, UNRESPONSIVE_REASON
from repro.experiments.chaos import (
    BYSTANDER,
    VICTIM,
    WARMUP_US,
    builtin_plans,
    chaos_costs,
    check_invariants,
    deep_check,
)
from repro.experiments.runner import build_env, run_workloads
from repro.faults import registry as fault_points
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.spans import fold_trace
from repro.obs.summary import diff_counts, diff_tasks
from repro.sim.trace import TraceRecorder
from repro.workloads.throttle import Throttle

DURATION_US = 220_000.0


def traced_run(plan, scheduler="dfq", seed=3):
    """One fully traced chaos-style run; returns (trace, results)."""
    env = build_env(
        scheduler,
        seed=seed,
        costs=chaos_costs(),
        trace=TraceRecorder(),
        fault_plan=plan,
    )
    workloads = [Throttle(800.0, name=VICTIM), Throttle(800.0, name=BYSTANDER)]
    results = run_workloads(env, workloads, DURATION_US, WARMUP_US)
    return env.trace, results


def normalized(trace):
    """Id-insensitive record view.

    Channel/context ids come from process-global counters, so they
    differ between runs inside one test process even though each run is
    deterministic; the (time, source, kind) sequence is the replayable
    signature.
    """
    return [(r.time, r.source, r.kind) for r in trace.records()]


def result_signature(results):
    return {
        name: (
            result.rounds.count,
            result.rounds.mean_us,
            result.requests_submitted,
            result.killed,
            result.kill_reason,
            result.ground_truth_usage_us,
            tuple(sorted(result.metrics.items())),
        )
        for name, result in results.items()
    }


def test_same_plan_and_seed_replays_identical_trace():
    plan = builtin_plans()["mixed"]
    left_trace, left_results = traced_run(plan)
    right_trace, right_results = traced_run(plan)
    assert diff_counts(left_trace, right_trace) == {}
    assert diff_tasks(
        fold_trace(left_trace).summary, fold_trace(right_trace).summary
    ) == {}
    # Record-for-record, not just in aggregate.
    assert normalized(left_trace) == normalized(right_trace)
    assert result_signature(left_results) == result_signature(right_results)


def test_different_plan_seed_diverges():
    base = builtin_plans()["pollstall"]
    reseeded = FaultPlan(specs=base.specs, seed=base.seed + 1, name=base.name)
    left_trace, _ = traced_run(base)
    right_trace, _ = traced_run(reseeded)
    # Reseeding the plan moves the probabilistic injections in time.
    left_times = [
        r.time for r in left_trace.records(kind="fault_injected")
    ]
    right_times = [
        r.time for r in right_trace.records(kind="fault_injected")
    ]
    assert left_times != right_times


def test_no_plan_and_empty_plan_runs_are_identical():
    none_trace, none_results = traced_run(None)
    empty_trace, empty_results = traced_run(FaultPlan(name="none"))
    assert diff_counts(none_trace, empty_trace) == {}
    assert normalized(none_trace) == normalized(empty_trace)
    assert result_signature(none_results) == result_signature(empty_results)
    # And no fault machinery left fingerprints anywhere.
    summary = fold_trace(empty_trace).summary
    assert summary.fault_timeline == []
    for task in summary.tasks.values():
        assert task.faults_injected == 0
        assert task.fault_detections == 0


def test_hang_fault_attributed_and_killed_with_legacy_reason():
    plan = builtin_plans()["hang"]
    _, results = traced_run(plan, scheduler="disengaged-timeslice")
    victim = results[VICTIM]
    assert victim.killed
    assert victim.kill_reason == RUNAWAY_REASON
    bystander = results[BYSTANDER]
    assert not bystander.killed
    assert bystander.rounds.count > 0
    assert check_invariants(plan, results) == []


def test_refstall_recovered_by_watchdog_retry():
    plan = builtin_plans()["refstall"]
    trace, results = traced_run(plan, scheduler="dfq")
    summary = fold_trace(trace).summary
    victim = summary.tasks[VICTIM]
    assert victim.fault_detections > 0
    assert victim.fault_recoveries > 0
    assert victim.fault_escalations == 0
    assert not results[VICTIM].killed  # recovered, not punished
    kinds = [incident.kind for incident in summary.fault_timeline]
    assert "fault_detected" in kinds
    assert "watchdog_retry" in kinds
    assert "fault_recovered" in kinds
    assert check_invariants(plan, results) == []


def test_unresponsive_storm_walks_full_ladder():
    # Needs the full chaos horizon so the backed-off retries and the
    # strike-two episode both settle in-run.
    from repro.experiments import chaos

    plan = builtin_plans()["refstall-storm"]
    assert deep_check(plan, "dfq") == []
    env = build_env(
        "dfq", seed=0, costs=chaos_costs(),
        trace=TraceRecorder(), fault_plan=plan,
    )
    workloads = [Throttle(800.0, name=VICTIM), Throttle(800.0, name=BYSTANDER)]
    results = run_workloads(env, workloads, chaos.DURATION_US, WARMUP_US)
    summary = fold_trace(env.trace).summary
    victim = summary.tasks[VICTIM]
    # Strike one degrades (recover via quarantine), strike two kills.
    assert victim.fault_escalations == 1
    assert victim.fault_recoveries >= 1
    assert results[VICTIM].killed
    assert results[VICTIM].kill_reason == UNRESPONSIVE_REASON
    actions = [
        incident.kind for incident in summary.fault_timeline
        if incident.task == VICTIM
    ]
    assert actions[-1] == "fault_escalated"
    assert check_invariants(plan, results) == []


def test_every_builtin_plan_validates_and_round_trips():
    for name, plan in builtin_plans().items():
        plan.validate()
        assert FaultPlan.loads(plan.dumps()) == plan
        for spec in plan.specs:
            point = fault_points.INJECTION_POINTS[spec.point]
            defaults = FaultSpec(point=spec.point)
            for knob in ("magnitude_us", "factor"):
                # Plans only turn knobs the point actually honors.
                if getattr(spec, knob) != getattr(defaults, knob):
                    assert knob in point.knobs, (name, spec.point, knob)
