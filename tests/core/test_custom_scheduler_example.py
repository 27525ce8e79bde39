"""The README's template for writing a scheduler engages through NEON."""

import importlib.util
from pathlib import Path

import pytest

from repro.core.base import scheduler_registry
from repro.experiments.runner import build_env, run_workloads
from repro.workloads.throttle import Throttle

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "custom_scheduler.py"


@pytest.fixture
def foreground_first(monkeypatch):
    """Load the example, registering its scheduler for this test only."""
    monkeypatch.setitem(scheduler_registry, "foreground-first", None)
    spec = importlib.util.spec_from_file_location("custom_scheduler", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ForegroundFirst


def test_foreground_first_time_counts_as_engaged(foreground_first):
    env = build_env(foreground_first(), seed=0)
    env.scheduler.foreground_name = "interactive"
    interactive = Throttle(50.0, sleep_ratio=0.9, name="interactive")
    batch = Throttle(500.0, name="batch")
    run_workloads(env, [interactive, batch], 100_000.0, 0.0)
    ledger = env.scheduler.neon.engagement.snapshot(env.sim.now)
    for workload in (interactive, batch):
        assert env.metrics.counter("faults").value(workload.name) > 0
        assert ledger[workload.name]["engaged_us"] > 0
        assert ledger[workload.name]["disengaged_us"] == 0
    # The background task waited on the base waiter ledger and was woken.
    assert batch.round_stats(0.0).count > 0
