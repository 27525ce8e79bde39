"""Tests for the SLO rule engine (repro.obs.slo)."""

import json
import math

import pytest

from repro.obs.slo import SloEngine, SloRule, load_rules
from repro.obs.windows import TenantWindow, WindowSnapshot


def _snapshot(index, tenants, jain=1.0):
    return WindowSnapshot(
        index=index,
        start_us=index * 100.0,
        end_us=(index + 1) * 100.0,
        tenants=tenants,
        jain=jain,
        share_basis="share_usage_us",
        latency_bin_us=50.0,
    )


# ----------------------------------------------------------------------
# Rule schema
# ----------------------------------------------------------------------

def test_rule_round_trips_through_dict():
    rule = SloRule("p99", "tail_latency", 500.0, for_windows=3, quantile=0.95)
    assert SloRule.from_dict(rule.to_dict()) == rule


def test_rule_rejects_unknown_kind_and_fields():
    with pytest.raises(ValueError):
        SloRule("x", "nonsense", 1.0)
    with pytest.raises(ValueError):
        SloRule.from_dict({"name": "x", "kind": "starvation",
                           "threshold": 1.0, "surprise": True})
    with pytest.raises(ValueError):
        SloRule("x", "starvation", 1.0, for_windows=0)


def test_load_rules_accepts_list_and_wrapper(tmp_path):
    rules = [SloRule("a", "starvation", 10.0).to_dict()]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(rules))
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"rules": rules}))
    assert load_rules(plain) == load_rules(wrapped)
    assert load_rules(plain)[0].kind == "starvation"


def test_engine_rejects_duplicate_names():
    with pytest.raises(ValueError):
        SloEngine([SloRule("a", "starvation", 1.0),
                   SloRule("a", "fairness_floor", 0.5)])


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------

def test_fairness_floor_fires_on_low_jain():
    engine = SloEngine([SloRule("floor", "fairness_floor", 0.8)])
    events = engine.observe(_snapshot(0, {}, jain=0.5))
    assert [e.event for e in events] == ["violation"]
    assert events[0].task == ""
    assert events[0].value == 0.5
    # NaN windows never fire.
    engine2 = SloEngine([SloRule("floor", "fairness_floor", 0.8)])
    assert engine2.observe(_snapshot(0, {}, jain=math.nan)) == []


def test_starvation_requires_demand_without_progress():
    engine = SloEngine([SloRule("starve", "starvation", 100.0)])
    starving = TenantWindow(submits=5, completions=0, share_usage_us=0.0)
    events = engine.observe(_snapshot(0, {"victim": starving}))
    assert [e.task for e in events] == ["victim"]
    # Progress (completions) clears it; no demand never fires.
    fine = TenantWindow(submits=5, completions=2, share_usage_us=0.0)
    idle = TenantWindow()
    engine2 = SloEngine([SloRule("starve", "starvation", 100.0)])
    assert engine2.observe(_snapshot(0, {"a": fine, "b": idle})) == []


def test_tail_latency_uses_rule_quantile():
    engine = SloEngine([
        SloRule("p50", "tail_latency", 100.0, quantile=0.5),
    ])
    slow = TenantWindow(completions=4, latencies=[10.0, 400.0, 400.0, 400.0])
    events = engine.observe(_snapshot(0, {"slow": slow}))
    assert [e.event for e in events] == ["violation"]
    # p50 (2nd of 4 observations) sits in the 400 bin (upper edge 450).
    assert events[0].value == pytest.approx(450.0)
    # The same window passes a p25 rule: that rank is the 10 us observation.
    engine2 = SloEngine([SloRule("p25", "tail_latency", 100.0, quantile=0.25)])
    assert engine2.observe(_snapshot(0, {"slow": slow})) == []


def test_overuse_budget_checks_both_time_and_escalations():
    rules = [SloRule("budget", "overuse_budget", 50.0, max_escalations=0)]
    over_time = TenantWindow(overuse_us=80.0)
    events = SloEngine(rules).observe(_snapshot(0, {"hog": over_time}))
    assert [e.task for e in events] == ["hog"]
    escalated = TenantWindow(escalations=2)
    events = SloEngine(rules).observe(_snapshot(0, {"bad": escalated}))
    assert [e.task for e in events] == ["bad"]
    clean = TenantWindow(overuse_us=10.0)
    assert SloEngine(rules).observe(_snapshot(0, {"ok": clean})) == []


# ----------------------------------------------------------------------
# Hysteresis and recovery
# ----------------------------------------------------------------------

def test_for_windows_hysteresis_delays_firing():
    engine = SloEngine([SloRule("floor", "fairness_floor", 0.8,
                                for_windows=3)])
    assert engine.observe(_snapshot(0, {}, jain=0.5)) == []
    assert engine.observe(_snapshot(1, {}, jain=0.5)) == []
    events = engine.observe(_snapshot(2, {}, jain=0.5))
    assert [e.event for e in events] == ["violation"]
    assert events[0].violated_windows == 3
    # Still violating: no duplicate events while active.
    assert engine.observe(_snapshot(3, {}, jain=0.5)) == []
    assert engine.violations == 1


def test_clean_window_resets_streak_before_firing():
    engine = SloEngine([SloRule("floor", "fairness_floor", 0.8,
                                for_windows=2)])
    assert engine.observe(_snapshot(0, {}, jain=0.5)) == []
    assert engine.observe(_snapshot(1, {}, jain=0.9)) == []  # streak reset
    assert engine.observe(_snapshot(2, {}, jain=0.5)) == []
    events = engine.observe(_snapshot(3, {}, jain=0.5))
    assert [e.event for e in events] == ["violation"]


def test_recovery_fires_once_and_reports_last_value():
    engine = SloEngine([SloRule("floor", "fairness_floor", 0.8)])
    engine.observe(_snapshot(0, {}, jain=0.4))
    events = engine.observe(_snapshot(1, {}, jain=0.95))
    assert [e.event for e in events] == ["recovered"]
    assert events[0].value == 0.4  # last violating measurement
    assert engine.observe(_snapshot(2, {}, jain=0.95)) == []
    assert (engine.violations, engine.recoveries) == (1, 1)
    assert engine.active_violations == []


def test_per_task_state_is_independent():
    engine = SloEngine([SloRule("starve", "starvation", 100.0)])
    starving = {"a": TenantWindow(submits=3), "b": TenantWindow(submits=3)}
    events = engine.observe(_snapshot(0, starving))
    assert sorted(e.task for e in events) == ["a", "b"]
    # b recovers, a stays violated.
    mixed = {"a": TenantWindow(submits=3), "b": TenantWindow(submits=3, completions=1)}
    events = engine.observe(_snapshot(1, mixed))
    assert [(e.event, e.task) for e in events] == [("recovered", "b")]
    assert engine.active_violations == [("starve", "a")]
