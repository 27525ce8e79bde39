"""Reporters and CLI: text/JSON shape, exit codes, subcommand wiring."""

import json

from repro.staticcheck import Config, run_analysis
from repro.staticcheck.cli import main as staticcheck_main
from repro.staticcheck.report import format_json, format_text
from repro.staticcheck.rules import RULES

from tests.staticcheck.conftest import FIXTURES

BAD = FIXTURES / "bad_determinism.py"
GOOD = FIXTURES / "good_determinism.py"


def test_text_report_is_compiler_shaped():
    violations = run_analysis([BAD], Config()).violations
    text = format_text(violations, files_checked=1)
    lines = text.splitlines()
    assert lines[0] == (
        f"{BAD}:3:0: NEON202 stdlib random is process-global state; draw "
        "from a named seeded stream (repro.sim.rng.RngRegistry) instead"
    )
    assert any(line.startswith(f"{BAD}:10:11: NEON201 ") for line in lines)
    assert lines[-1].startswith("6 violation(s) in 1 file(s) checked")
    assert "NEON203 x3" in lines[-1]


def test_text_report_when_clean():
    assert format_text([], files_checked=4) == "clean: 4 file(s) checked, 0 violations"


def test_json_report_round_trips():
    violations = run_analysis([BAD], Config()).violations
    payload = json.loads(format_json(violations, files_checked=1))
    assert payload["files_checked"] == 1
    assert payload["violation_count"] == 6
    first = payload["violations"][0]
    assert first == {
        "path": str(BAD),
        "line": 3,
        "col": 0,
        "rule_id": "NEON202",
        "message": first["message"],
        "chain": [],
    }
    assert [v["rule_id"] for v in payload["violations"]] == [
        "NEON202", "NEON201", "NEON203", "NEON203", "NEON203", "NEON204",
    ]


def test_cli_exit_codes(capsys):
    assert staticcheck_main([str(GOOD)]) == 0
    assert "clean" in capsys.readouterr().out
    assert staticcheck_main([str(BAD)]) == 1
    assert "NEON204" in capsys.readouterr().out
    assert staticcheck_main(["definitely/not/a/path"]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_json_format(capsys):
    assert staticcheck_main([str(BAD), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violation_count"] == 6


def test_cli_list_rules(capsys):
    assert staticcheck_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


def test_repro_cli_delegates_staticcheck_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["staticcheck", str(GOOD)]) == 0
    assert "clean" in capsys.readouterr().out
    assert repro_main(["staticcheck", str(BAD)]) == 1
