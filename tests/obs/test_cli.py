"""The ``repro trace`` CLI, end to end on tiny inline runs."""

import json

import pytest

from repro.obs.cli import main as trace_main
from repro.cli import main as repro_main

#: Tiny but episode-bearing run shared by the file-based subcommands.
RUN_ARGS = ["--apps", "glxgears,BitonicSort", "--duration-ms", "60"]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "dfq.jsonl"
    assert trace_main(["record", *RUN_ARGS, "-o", str(path)]) == 0
    return path


def test_kinds_lists_registry(capsys):
    assert trace_main(["kinds"]) == 0
    out = capsys.readouterr().out
    assert "fault" in out
    assert "barrier_begin" in out
    assert "payload:" in out


def test_record_writes_jsonl(trace_file):
    lines = trace_file.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "repro-trace"
    assert header["records"] == len(lines) - 1
    assert header["records"] > 0


def test_summary_from_file(trace_file, capsys):
    assert trace_main(["summary", str(trace_file)]) == 0
    out = capsys.readouterr().out
    assert "per-task activity:" in out
    assert "glxgears" in out
    assert "BitonicSort" in out
    assert "engagement-overhead breakdown" in out
    assert "free-run" in out
    assert "records by kind:" in out


def test_summary_inline_recording(capsys):
    assert trace_main(["summary", *RUN_ARGS]) == 0
    out = capsys.readouterr().out
    assert "glxgears" in out
    assert "engagement-overhead breakdown" in out


def test_summary_json_is_machine_readable(trace_file, capsys):
    # 'repro why' consumes this payload for its run-overview preamble.
    assert trace_main(["summary", str(trace_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] > 0
    assert payload["dropped"] == 0
    assert set(payload["tasks"]) == {"glxgears", "BitonicSort"}
    for task in payload["tasks"].values():
        assert task["submits"] >= task["completes"]
    assert payload["kind_counts"]["request_submit"] > 0
    assert len(payload["span_us"]) == 2


def test_summary_is_deterministic(capsys):
    trace_main(["summary", *RUN_ARGS])
    first = capsys.readouterr().out
    trace_main(["summary", *RUN_ARGS])
    second = capsys.readouterr().out
    assert first == second


def test_filter_by_kind_and_task(trace_file, tmp_path, capsys):
    out_path = tmp_path / "faults.jsonl"
    assert trace_main([
        "filter", str(trace_file), "--kind", "fault",
        "--task", "glxgears", "-o", str(out_path),
    ]) == 0
    lines = out_path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert records
    assert all(r["kind"] == "fault" for r in records)
    assert all(r["p"]["task"] == "glxgears" for r in records)


def test_export_chrome_loads_as_json(trace_file, tmp_path):
    out_path = tmp_path / "trace.chrome.json"
    assert trace_main([
        "export", str(trace_file), "--format", "chrome", "-o", str(out_path),
    ]) == 0
    document = json.loads(out_path.read_text())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "engagement episode"
               for e in events)
    assert any(e["ph"] == "M" for e in events)


def test_diff_identical_traces_exit_zero(trace_file, capsys):
    assert trace_main(["diff", str(trace_file), str(trace_file)]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_diff_different_traces_exit_one(trace_file, tmp_path, capsys):
    other = tmp_path / "timeslice.jsonl"
    trace_main(["record", "--scheduler", "timeslice", *RUN_ARGS,
                "-o", str(other)])
    assert trace_main(["diff", str(trace_file), str(other)]) == 1
    out = capsys.readouterr().out
    assert "records by kind:" in out
    assert "token_pass" in out


def test_max_records_caps_the_recording(tmp_path):
    path = tmp_path / "capped.jsonl"
    trace_main(["record", *RUN_ARGS, "--max-records", "50", "-o", str(path)])
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["records"] == 50
    assert header["dropped"] > 0


def test_summary_warns_loudly_about_dropped_records(tmp_path, capsys):
    path = tmp_path / "capped.jsonl"
    trace_main(["record", *RUN_ARGS, "--max-records", "50", "-o", str(path)])
    capsys.readouterr()
    assert trace_main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "WARNING: ring buffer evicted" in out
    assert "PARTIAL" in out
    assert "--max-records" in out


def test_summary_of_uncapped_trace_has_no_warning(trace_file, capsys):
    assert trace_main(["summary", str(trace_file)]) == 0
    assert "WARNING" not in capsys.readouterr().out


def test_top_level_cli_delegates(capsys):
    assert repro_main(["trace", "kinds"]) == 0
    assert "barrier_begin" in capsys.readouterr().out


def test_export_strict_passes_on_complete_trace(trace_file, tmp_path):
    out_path = tmp_path / "ok.chrome.json"
    code = trace_main([
        "export", str(trace_file), "--strict", "-o", str(out_path),
    ])
    assert code == 0
    assert json.loads(out_path.read_text())["metadata"]["dropped"] == 0


def test_export_strict_fails_on_partial_trace(tmp_path, capsys):
    # Record with a tiny ring buffer so eviction is guaranteed, then
    # demand a complete trace: the export is still written, but the exit
    # code and a stderr diagnostic flag the loss.
    trace_path = tmp_path / "partial.jsonl"
    assert trace_main([
        "record", *RUN_ARGS, "--max-records", "50", "-o", str(trace_path),
    ]) == 0
    out_path = tmp_path / "partial.chrome.json"
    code = trace_main([
        "export", str(trace_path), "--strict", "-o", str(out_path),
    ])
    assert code == 1
    assert "PARTIAL" in capsys.readouterr().err
    document = json.loads(out_path.read_text())
    assert document["metadata"]["dropped"] > 0
    assert document["traceEvents"]

    # Without --strict the same export exits cleanly.
    assert trace_main([
        "export", str(trace_path), "-o", str(out_path),
    ]) == 0
