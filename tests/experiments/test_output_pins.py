"""Byte pins of the paper's headline figures, the preemption study and
the examples.

``repro figure4`` and ``repro figure6`` stdout at 120 ms with ``--no-cache``
is pinned by sha256.  At 120 ms every row carries measured values (the
drivers' 60 ms warmup leaves 60 ms of rounds), so the pin covers the
figures themselves.  ``repro preemption`` at 200 ms is pinned too: it is
the one experiment that drives the device engine's preempt, save and
restore path, which neither figure exercises.  The stdout of every script
in ``examples/`` is pinned as well; the README points readers at them.
The output depends only on the spec and the seed: it must not move with
``PYTHONHASHSEED``, the worker count or the Python version.  A change
that moves a pinned output on purpose updates the pin and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Experiment -> (``--duration-ms``, sha256 of its stdout).
PINS = {
    "figure4": (
        "120", "212b5204dd7fe13bc7e102016e60798e365d5dc8f1a8f5149a8934afdff73ccf"
    ),
    "figure6": (
        "120", "dace4aa5f1de216337aad1b647b1b58e6ce03d4ecb20e1e4de151de2b2494a67"
    ),
    "preemption": (
        "200", "8a4d2f31952f38b8e876b6c25409ca4cae9460822faf9d55a6c443b16250089c"
    ),
}

#: Example script (under ``examples/``) -> sha256 of its stdout.
EXAMPLE_PINS = {
    "adversarial_protection.py":
        "d29cb40b6e2bc5024331e09294f1006775e3591f2f82550ee1f94b1877a900d7",
    "custom_scheduler.py":
        "57cbf339ba0b0f4c68b16d680d83dcdeeb25c2a80821c00c969665ec9da86e80",
    "multiprogrammed_fairness.py":
        "551b295cc7c078d23dd4d9dc345e4e16788bc280eb56d1a0bb5dbfffa2b6ed3f",
    "nonsaturating_workloads.py":
        "c1d928c06e282ae8076efdd9df5830b9352a98062b352e3861cf4875397ca278",
    "quickstart.py":
        "1de8e2e6fdc9853e2228a8b5cdc3c71fa4a16393d57704ba3d20e03653a18c2d",
    "timeline_visualization.py":
        "4ad0a64011243cba9383c78733e1b2723169b9322ae4a16cb22283a875a3dbe3",
    "trace_replay.py":
        "741706d5b722735e2a2bac1041894aad92fedb87e2359df189379bfa2e957b72",
}


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("experiment", sorted(PINS))
def test_figure_stdout_matches_pin(experiment):
    duration_ms, digest = PINS[experiment]
    proc = _python(
        "-m", "repro.cli", experiment, "--duration-ms", duration_ms, "--no-cache"
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert b"warning:" not in proc.stderr


@pytest.mark.parametrize(
    "example", sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
)
def test_example_stdout_matches_pin(example):
    assert example in EXAMPLE_PINS, f"examples/{example} has no stdout pin"
    proc = _python(str(REPO_ROOT / "examples" / example))
    assert hashlib.sha256(proc.stdout).hexdigest() == EXAMPLE_PINS[example]


def test_horizon_inside_warmup_warns_once_on_stderr():
    proc = _python("-m", "repro.cli", "figure4", "--duration-ms", "60", "--no-cache")
    warnings = [
        line for line in proc.stderr.decode().splitlines()
        if line.startswith("warning:")
    ]
    assert warnings == [
        "warning: figure4: --duration-ms 60 is inside its 60 ms warmup; "
        "rows with no measured rounds print '-'"
    ]
    assert b"warning" not in proc.stdout
