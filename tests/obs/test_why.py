"""``repro why``: window selection, attribution, report mode."""

import json

import pytest

from repro.cli import main as repro_main
from repro.obs.monitor import main as monitor_main
from repro.obs.why import blame_line, main as why_main

#: Deliberately overloaded figure4-style tenant: glxgears contending
#: with three BitonicSort instances under DFQ (the acceptance scenario).
OVERLOAD_ARGS = [
    "--scheduler", "dfq",
    "--apps", "glxgears,BitonicSort,BitonicSort,BitonicSort",
    "--duration-ms", "120",
]


@pytest.fixture(scope="module")
def monitored(tmp_path_factory):
    """One monitored overload run: (trace.jsonl, report.json)."""
    root = tmp_path_factory.mktemp("why")
    trace = root / "trace.jsonl"
    report = root / "report.json"
    monitor_main([
        "run", *OVERLOAD_ARGS, "--slo-p99-us", "400", "--quiet",
        "--report", str(report), "--trace-out", str(trace),
    ])
    return trace, report


def test_inline_attribution_emits_blame_line(capsys):
    assert why_main([*OVERLOAD_ARGS, "--task", "glxgears"]) == 0
    out = capsys.readouterr().out
    assert "decomposition:" in out
    assert "dominant:" in out
    assert "top interfering tenants:" in out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("WHY dominant=")
    assert "task=glxgears" in lines[-1]


def test_overloaded_tenant_blames_queue_wait_on_interferers(monitored, capsys):
    """The acceptance scenario: >=80% of the violated p99 window goes to
    scheduler queue-wait, blamed on a BitonicSort instance."""
    trace, report = monitored
    assert why_main(
        [str(trace), "--report", str(report), "--task", "glxgears", "--json"]
    ) == 0
    attribution = json.loads(capsys.readouterr().out)
    assert attribution["dominant"] == "queue"
    assert attribution["dominant_share_pct"] >= 80.0
    assert attribution["interference"][0]["task"].startswith("BitonicSort")


def test_report_mode_without_task_uses_first_violation(monitored, capsys):
    trace, report = monitored
    assert why_main([str(trace), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "attributing SLO violation rule=p99-ceiling" in out
    assert out.strip().splitlines()[-1].startswith("WHY dominant=")


def test_report_without_violation_exits_2(monitored, tmp_path, capsys):
    trace, _report = monitored
    empty = tmp_path / "empty-report.json"
    empty.write_text(json.dumps({"slo_events": [], "runs": []}))
    assert why_main([str(trace), "--report", str(empty)]) == 2
    assert "no fired SLO violation" in capsys.readouterr().err


def test_json_mode_is_machine_readable(capsys):
    assert why_main([*OVERLOAD_ARGS, "--task", "glxgears", "--json"]) == 0
    attribution = json.loads(capsys.readouterr().out)
    for key in ("task", "window", "components", "dominant",
                "dominant_share_pct", "interference", "critical_span"):
        assert key in attribution
    assert attribution["total_us"] == sum(attribution["components"].values())


def test_attribution_is_deterministic(capsys):
    why_main([*OVERLOAD_ARGS, "--task", "glxgears"])
    first = capsys.readouterr().out
    why_main([*OVERLOAD_ARGS, "--task", "glxgears"])
    assert capsys.readouterr().out == first


def test_blame_line_shape():
    line = blame_line({
        "window": [10_000.0, 20_000.0],
        "dominant": "queue",
        "dominant_share_pct": 87.6,
        "task": "glxgears",
        "interference": [{"task": "BitonicSort.2", "overlap_us": 1493}],
    })
    assert line == (
        "WHY dominant=queue share=87.6% task=glxgears "
        "window=10000-20000us top=BitonicSort.2"
    )


def test_top_level_cli_delegates(capsys):
    assert repro_main([
        "why", "--scheduler", "dfq", "--apps", "glxgears,BitonicSort",
        "--duration-ms", "40",
    ]) == 0
    assert "WHY dominant=" in capsys.readouterr().out
