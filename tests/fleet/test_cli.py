"""The ``repro fleet`` CLI: listings, runs, gates, chaos."""

import pytest

from repro.cli import main as repro_main
from repro.fleet.cli import main as fleet_main


def test_policies_listing(capsys):
    assert fleet_main(["policies"]) == 0
    out = capsys.readouterr().out
    for name in ("fleet-fair", "server", "partitioned"):
        assert name in out


def test_placements_listing(capsys):
    assert fleet_main(["placements"]) == 0
    out = capsys.readouterr().out
    for name in ("least-loaded", "hash-shard", "partition-affinity"):
        assert name in out


def test_run_prints_fleet_table(capsys):
    code = fleet_main([
        "run", "--devices", "2", "--tenants", "4",
        "--duration-ms", "40",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet Jain index" in out
    assert "devices lost: 0" in out


def test_run_is_dispatched_from_the_top_level_cli(capsys):
    code = repro_main([
        "fleet", "run", "--devices", "2", "--tenants", "4",
        "--duration-ms", "40",
    ])
    assert code == 0
    assert "fleet Jain index" in capsys.readouterr().out


def test_run_determinism_same_stdout(capsys):
    argv = ["run", "--devices", "2", "--tenants", "6",
            "--duration-ms", "40"]
    assert fleet_main(argv) == 0
    first = capsys.readouterr().out
    assert fleet_main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("warmup_ms", ["500", "40", "-1"])
def test_warmup_outside_the_run_is_a_usage_error(warmup_ms, capsys):
    # A warmup that covers the run measures no rounds; the gate must not
    # pass on an empty measurement.
    assert fleet_main([
        "run", "--devices", "2", "--duration-ms", "40",
        "--warmup-ms", warmup_ms, "--fail-on-violation",
    ]) == 2
    captured = capsys.readouterr()
    assert "--warmup-ms must be >= 0 and below the duration" in captured.err
    assert "Jain" not in captured.out


def test_jain_floor_requires_windows(capsys):
    assert fleet_main([
        "run", "--devices", "2", "--slo-jain-floor", "0.9",
    ]) == 2


def test_monitored_run_with_jain_gate(capsys):
    code = fleet_main([
        "run", "--devices", "2", "--tenants", "8",
        "--duration-ms", "60", "--window-us", "30000",
        "--slo-jain-floor", "0.9", "--fail-on-violation", "--quiet",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "fleet Jain index" in captured.out


def test_device_loss_run_checks_invariants(capsys):
    code = fleet_main([
        "run", "--devices", "3", "--tenants", "6",
        "--duration-ms", "80", "--lose-device", "0@30",
        "--fail-on-violation",
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.out
    assert "INVARIANT VIOLATION" not in captured.out


def test_bad_migrate_syntax_exits():
    with pytest.raises(SystemExit):
        fleet_main(["run", "--migrate", "nonsense"])
