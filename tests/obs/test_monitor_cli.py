"""The ``repro monitor`` CLI and its runner/farm integration, end to end."""

import json

import pytest

from repro.cli import main as repro_main
from repro.obs.monitor import (
    MonitorSession,
    active_monitor,
    main as monitor_main,
    monitoring,
)
from repro.obs.slo import SloRule
from repro.obs.windows import WindowConfig

#: Short inline run shared across the cheap tests.
RUN_ARGS = [
    "run", "--scheduler", "dfq", "--apps", "glxgears,BitonicSort",
    "--duration-ms", "60", "--window-us", "5000", "--quiet",
]


def test_rules_subcommand_lists_detectors(capsys):
    assert monitor_main(["rules"]) == 0
    out = capsys.readouterr().out
    for kind in ("starvation", "fairness_floor", "tail_latency",
                 "overuse_budget"):
        assert kind in out
    assert "rule schema" in out


def test_unknown_target_exits_2(capsys):
    assert monitor_main(["nonsense"]) == 2
    assert "unknown target" in capsys.readouterr().err


def test_run_mode_closes_windows(capsys):
    assert monitor_main(RUN_ARGS) == 0
    err = capsys.readouterr().err
    # 60 ms / 5 ms tumbling windows = 12 windows in exactly one run.
    assert "monitor: 12 windows" in err
    assert "across 1 runs" in err


def test_report_contains_windows_and_quantiles(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert monitor_main([*RUN_ARGS, "--report", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["windows_closed"] == 12
    assert report["window_us"] == 5000.0
    (run,) = report["runs"]
    assert len(run["windows"]) == 12
    busy = [w for w in run["windows"] if w["tenants"]]
    assert busy, "no window saw any tenant activity"
    for window in busy:
        for stats in window["tenants"].values():
            if stats["latency"] is not None:
                assert stats["latency"]["p99_us"] is not None


def test_impossible_slo_fires_and_fails(tmp_path, capsys):
    # A Jain floor of 1.0 cannot hold (shares are never perfectly equal),
    # so the violation must fire, surface in the report, AND flip the exit
    # code under --fail-on-violation.
    report_path = tmp_path / "report.json"
    code = monitor_main([
        *RUN_ARGS, "--slo-jain-floor", "1.0",
        "--fail-on-violation", "--report", str(report_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "SLO VIOLATION fairness_floor" in err
    report = json.loads(report_path.read_text())
    assert report["violations"] >= 1
    events = report["runs"][0]["slo_events"]
    assert any(e["event"] == "violation" for e in events)


def test_quiet_still_renders_slo_transitions(capsys):
    assert monitor_main([*RUN_ARGS, "--slo-jain-floor", "1.0"]) == 0
    err = capsys.readouterr().err
    assert "SLO VIOLATION" in err
    assert "window " not in err  # per-window lines suppressed


def test_chaos_plan_produces_violations(tmp_path, capsys):
    # Acceptance criterion: a seeded chaos plan (hang victim) trips an SLO,
    # visible in the live rendering and the JSON report.  The hang stalls
    # the engine until the watchdog escalates against the victim, so the
    # escalation budget (max_escalations=0) is the detector that fires.
    report_path = tmp_path / "report.json"
    code = monitor_main([
        "run", "--chaos", "hang", "--scheduler", "dfq",
        "--duration-ms", "120", "--window-us", "10000",
        "--slo-overuse-us", "1000000",
        "--fail-on-violation", "--report", str(report_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "SLO VIOLATION overuse_budget" in err
    report = json.loads(report_path.read_text())
    violations = [
        e for e in report["runs"][0]["slo_events"]
        if e["event"] == "violation"
    ]
    assert violations
    assert any(
        e["slo_kind"] == "overuse_budget" and e["task"] == "victim"
        for e in violations
    )


def test_experiment_mode_stdout_is_byte_identical(capsys):
    assert repro_main(["figure4", "--duration-ms", "40"]) == 0
    plain = capsys.readouterr().out
    assert monitor_main(["figure4", "--duration-ms", "40", "--quiet"]) == 0
    monitored = capsys.readouterr().out
    assert monitored == plain
    assert "Figure 4" in plain


def test_monitored_runs_share_the_metrics_registry():
    # The simulation's own counters and the monitor's land in one registry,
    # so windows_closed is visible next to scheduler counters.
    session = MonitorSession(WindowConfig(5_000.0))
    from repro.experiments.cells import CellSpec, WorkloadSpec

    spec = CellSpec(
        scheduler="dfq",
        workloads=(WorkloadSpec.app("glxgears"),),
        duration_us=50_000.0,
        warmup_us=0.0,
    )
    with monitoring(session):
        assert active_monitor() is session
        spec.run()
    assert active_monitor() is None
    (monitor,) = session.monitors
    counters = monitor.metrics.snapshot()["counters"]
    assert counters["windows_closed"] == {"": 10.0}
    assert "submits" in counters  # the simulation's own counters, same registry
    assert session.windows_closed == 10


def test_session_forces_serial_cell_farm():
    # Monitored cells must execute in-process even when workers > 1: the
    # pool would strand the module-level session hook.
    from repro.experiments.cells import CellSpec, WorkloadSpec
    from repro.experiments.parallel import run_cells

    specs = [
        CellSpec(
            scheduler="dfq",
            workloads=(WorkloadSpec.app("glxgears"),),
            duration_us=30_000.0,
            warmup_us=0.0,
            seed=seed,
        )
        for seed in (0, 1)
    ]
    session = MonitorSession(WindowConfig(5_000.0))
    with monitoring(session):
        results = run_cells(specs, workers=4)
    assert len(results) == 2
    assert len(session.monitors) == 2
    # Cell labels flow into the per-run monitor labels.
    assert [m.label for m in session.monitors] == [s.label() for s in specs]


def test_hysteresis_flag_delays_inline_rules(capsys):
    # for_windows=100 can never accumulate in a 12-window run.
    assert monitor_main([
        *RUN_ARGS, "--slo-jain-floor", "1.0", "--slo-for-windows", "100",
        "--fail-on-violation",
    ]) == 0
    assert "SLO VIOLATION" not in capsys.readouterr().err


def test_invalid_chaos_plan_raises():
    with pytest.raises(KeyError):
        monitor_main(["run", "--chaos", "not-a-plan"])
