"""Result plumbing: metrics snapshots in results, and tracing-off hygiene."""

import pytest

from repro.experiments.parallel import result_to_jsonable
from repro.experiments.runner import build_env, run_workloads
from repro.sim.trace import NullRecorder
from repro.workloads.apps import make_app
from tests.obs.conftest import DURATION_US, traced_run


def untraced_run(scheduler="dfq", apps=("glxgears", "BitonicSort"), seed=0):
    env = build_env(scheduler, seed=seed)
    workloads = [make_app(name) for name in apps]
    results = run_workloads(env, workloads, duration_us=DURATION_US)
    return env, results


def test_default_env_uses_null_recorder():
    env, _results = untraced_run()
    assert isinstance(env.trace, NullRecorder)
    assert not env.trace.enabled
    assert len(env.trace) == 0
    assert env.trace.dropped == 0


def test_results_identical_with_tracing_on_and_off():
    # Tracing must be purely observational: same seed, same results.
    _env_off, off = untraced_run()
    _env_on, _trace, on = traced_run()
    assert set(off) == set(on)
    for name in off:
        left, right = off[name], on[name]
        assert left.rounds.count == right.rounds.count
        assert left.rounds.mean_us == pytest.approx(right.rounds.mean_us)
        assert left.requests_submitted == right.requests_submitted
        assert left.ground_truth_usage_us == pytest.approx(
            right.ground_truth_usage_us)
        assert left.metrics == right.metrics


def test_result_metrics_populated():
    _env, results = untraced_run()
    for result in results.values():
        metrics = result.metrics
        assert metrics["submits"] > 0
        assert metrics["faults"] > 0  # dfq engages and traps sometimes
        assert metrics["request_latency_us_count"] > 0
        assert metrics["request_latency_us_mean"] > 0
        assert metrics["engaged_us"] >= 0
        assert metrics["disengaged_us"] > 0


def test_result_jsonable_round_trip():
    import json

    _env, results = untraced_run()
    for result in results.values():
        payload = result_to_jsonable(result)
        # Serializable as-is, and nothing is lost on the way through JSON.
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert restored["name"] == result.name
        assert restored["metrics"] == result.metrics
        assert restored["rounds"]["mean_us"] == result.rounds.mean_us
