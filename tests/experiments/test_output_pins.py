"""Byte pins of the paper's headline figures.

``repro figure4`` and ``repro figure6`` stdout at 120 ms with ``--no-cache``
is pinned by sha256.  At 120 ms every row carries measured values (the
drivers' 60 ms warmup leaves 60 ms of rounds), so the pin covers the
figures themselves.  The output depends only on the spec and the seed: it
must not move with ``PYTHONHASHSEED``, the worker count or the Python
version.  A change that moves a figure on purpose updates the pin and
says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

PINS = {
    "figure4": "212b5204dd7fe13bc7e102016e60798e365d5dc8f1a8f5149a8934afdff73ccf",
    "figure6": "dace4aa5f1de216337aad1b647b1b58e6ce03d4ecb20e1e4de151de2b2494a67",
}


def _repro(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("experiment", sorted(PINS))
def test_figure_stdout_matches_pin(experiment):
    proc = _repro(experiment, "--duration-ms", "120", "--no-cache")
    assert hashlib.sha256(proc.stdout).hexdigest() == PINS[experiment]
    assert b"warning:" not in proc.stderr


def test_horizon_inside_warmup_warns_once_on_stderr():
    proc = _repro("figure4", "--duration-ms", "60", "--no-cache")
    warnings = [
        line for line in proc.stderr.decode().splitlines()
        if line.startswith("warning:")
    ]
    assert warnings == [
        "warning: figure4: --duration-ms 60 is inside its 60 ms warmup; "
        "rows with no measured rounds print '-'"
    ]
    assert b"warning" not in proc.stdout
