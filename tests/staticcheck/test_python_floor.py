"""neonlint runs on the oldest supported Python (``requires-python >=3.10``).

``tomllib`` is the standard library's only 3.11-only module this repo
could reach for.  Blocking it in a fresh interpreter stands in for a 3.10
host: the package must import and the CLI must check ``src`` cleanly.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_WITHOUT_TOMLLIB = """\
import sys
sys.modules["tomllib"] = None  # import tomllib now raises ModuleNotFoundError
import repro.staticcheck
from repro.staticcheck.cli import main
sys.exit(main(["src"]))
"""


def test_staticcheck_runs_without_tomllib():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_TOMLLIB],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 violations" in proc.stdout
