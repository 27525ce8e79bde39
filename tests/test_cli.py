"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def test_list_shows_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_unknown_experiment_errors(capsys):
    assert main(["no-such-thing"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_runs_a_quick_experiment(capsys):
    assert main(["section3", "--duration-ms", "20"]) == 0
    out = capsys.readouterr().out
    assert "Section 3" in out
    assert "direct" in out


def test_seed_flag_parses():
    args = build_parser().parse_args(["figure4", "--seed", "7"])
    assert args.seed == 7
    assert args.experiment == "figure4"


def test_duration_flag_default_is_none():
    args = build_parser().parse_args(["figure4"])
    assert args.duration_ms is None


def test_workers_and_cache_flags_parse():
    args = build_parser().parse_args(
        ["figure6", "--workers", "4", "--no-cache"]
    )
    assert args.workers == 4
    assert args.no_cache


def test_workers_default_is_serial():
    args = build_parser().parse_args(["figure6"])
    assert args.workers == 1
    assert not args.no_cache


def test_cell_experiment_emits_wall_time_summary(capsys):
    assert main(["figure5", "--duration-ms", "10"]) == 0
    captured = capsys.readouterr()
    assert "Figure 5" in captured.out
    assert "cell farm:" in captured.err
    assert "cell farm:" not in captured.out  # stdout stays byte-identical


def test_non_cell_experiment_accepts_farm_flags(capsys):
    # table1 does not take workers/cache; the CLI must not pass them.
    assert main(["table1", "--duration-ms", "10", "--workers", "2"]) == 0
    assert "Table 1" in capsys.readouterr().out


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["figure5", "--cache-dir", "cells"],
    ["chaos", "matrix", "--cache-dir", "cells"],
    ["fleet", "run", "--cache-dir", "cells"],
    ["fleet", "run", "--no-cache"],
    ["fleet", "chaos", "--cache-dir", "cells"],
    ["fleet", "chaos", "--no-cache"],
], ids=" ".join)
def test_removed_cache_flags_are_usage_errors(argv, capsys):
    # Results live for one invocation; nothing persists them or opts a
    # single-call CLI out of sharing.
    _usage_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["chaos", "matrix", "--strict", "--plans", ","],
    ["chaos", "matrix", "--strict", "--schedulers", ","],
    ["fleet", "run", "--seeds", ",", "--fail-on-violation"],
], ids=["plans", "schedulers", "seeds"])
def test_empty_lists_are_usage_errors(argv, capsys):
    # A gate that runs no cell must not pass.
    _usage_error(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["figure5", "--duration-ms", "-5"],
    ["figure5", "--duration-ms", "0"],
    ["chaos", "matrix", "--duration-ms", "0"],
    ["chaos", "run", "none", "--duration-ms", "-1"],
    ["fleet", "run", "--devices", "0"],
    ["fleet", "run", "--tenants", "0"],
    ["fleet", "run", "--duration-ms", "-20", "--fail-on-violation"],
    ["fleet", "chaos", "--devices", "0"],
    ["fleet", "chaos", "--tenants", "0"],
    ["fleet", "chaos", "--duration-ms", "0"],
], ids=" ".join)
def test_non_positive_numbers_are_usage_errors(argv, capsys):
    _usage_error(argv, capsys)


def test_positive_and_comma_list_parse_good_values():
    from repro.cli import comma_list, positive

    assert positive(int)("3") == 3
    assert positive(float)("0.5") == 0.5
    assert comma_list(int)("1, 2,,3") == [1, 2, 3]
    assert comma_list()("none,hang") == ["none", "hang"]


def test_catalog_covers_every_paper_artifact():
    expected = {
        "table1", "figure2", "section3", "figure4", "figure5", "figure6",
        "figure7", "figure8", "figure9", "figure10", "protection",
        "section6", "ablations", "preemption", "breakdown",
    }
    assert expected <= set(EXPERIMENTS)
