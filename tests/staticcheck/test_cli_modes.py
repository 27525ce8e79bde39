"""CLI modes: --changed, --stats recording, --workers parity, SARIF."""

import json
import subprocess
from textwrap import dedent

from repro.staticcheck import Config
from repro.staticcheck.cli import main as staticcheck_main
from repro.staticcheck.engine import run_analysis

CLEAN = "def ok():\n    return 1\n"
DIRTY = "import json\n\ndef ok():\n    return 1\n"


def _git(repo, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo), "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


def _make_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-b", "main")
    (repo / "committed.py").write_text(DIRTY)  # pre-existing violation
    _git(repo, "add", ".")
    _git(repo, "commit", "-m", "seed")
    return repo


def test_changed_reports_only_touched_files(tmp_path, monkeypatch, capsys):
    repo = _make_repo(tmp_path)
    (repo / "touched.py").write_text("import sys\n\ndef go():\n    return 2\n")
    monkeypatch.chdir(repo)
    code = staticcheck_main([str(repo), "--changed"])
    out = capsys.readouterr().out
    assert code == 1
    assert "touched.py" in out
    # committed.py's pre-existing NEON505 is outside the changed set.
    assert "committed.py" not in out


def test_changed_with_no_changes_is_clean(tmp_path, monkeypatch, capsys):
    repo = _make_repo(tmp_path)
    monkeypatch.chdir(repo)
    code = staticcheck_main([str(repo), "--changed"])
    assert code == 0
    assert "no changed python files" in capsys.readouterr().out


def test_changed_outside_git_is_usage_error(tmp_path, monkeypatch, capsys):
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "mod.py").write_text(CLEAN)
    monkeypatch.chdir(plain)
    monkeypatch.setenv("GIT_DIR", str(plain / "nowhere"))
    code = staticcheck_main([str(plain), "--changed"])
    assert code == 2
    assert "--changed requires a git worktree" in capsys.readouterr().err


def test_stats_print_engine_counters_to_stderr(tmp_path, capsys):
    project = tmp_path / "project"
    project.mkdir()
    (project / "mod.py").write_text(CLEAN)
    code = staticcheck_main([str(project), "--stats"])
    assert code == 0
    captured = capsys.readouterr()
    assert "neonlint stats: 1 file(s)" in captured.err
    for rule_id in ("NEON501", "NEON502", "NEON503", "NEON504", "NEON505"):
        assert f"  {rule_id}:" in captured.err
    assert "neonlint stats" not in captured.out


def test_workers_parity(tmp_path):
    project = tmp_path / "project"
    project.mkdir()
    for index in range(6):
        (project / f"mod{index}.py").write_text(
            dedent(f"""\
                import json

                def fn{index}():
                    import random
                    return random.random()
            """)
        )
    serial = run_analysis([project], Config(), workers=1)
    pooled = run_analysis([project], Config(), workers=4)
    assert serial.violations == pooled.violations
    assert serial.violations  # the fixture really produces findings


def test_sarif_format_from_cli(tmp_path, capsys):
    project = tmp_path / "project"
    project.mkdir()
    (project / "mod.py").write_text(DIRTY)
    code = staticcheck_main([str(project), "--format", "sarif"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    assert payload["runs"][0]["results"][0]["ruleId"] == "NEON505"
