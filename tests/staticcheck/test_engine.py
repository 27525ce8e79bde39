"""The analysis engine: one parse per file, both layers over that parse."""

from textwrap import dedent

import pytest

from repro.staticcheck import Config
from repro.staticcheck.core import ModuleContext
from repro.staticcheck.engine import run_analysis


def _repro_module(root, name, source):
    """Write ``source`` as ``repro/<name>`` so the ``repro`` scoping applies."""
    pkg = root / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / name).write_text(dedent(source))


def test_each_file_is_parsed_once(tmp_path, monkeypatch):
    _repro_module(tmp_path, "emitter.py", """\
        import json

        def run(trace, now):
            trace.emit(now, "emitter", "fault", task="t")
    """)
    (tmp_path / "loose.py").write_text("def ok():\n    return 1\n")
    (tmp_path / "broken.py").write_text("def broken(:\n")
    parses = []
    original = ModuleContext.__init__

    def counting_init(self, *args, **kwargs):
        parses.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(ModuleContext, "__init__", counting_init)
    result = run_analysis([tmp_path], Config())
    assert result.stats.files_checked == 4
    assert len(parses) == result.stats.files_checked
    assert result.violations  # the project really exercises both layers


# Each case: (module source, expected (rule_id, line) findings).  The
# registry-literal and unused-import findings of the full engine run.
_DETECTIONS = {
    "event-kind-literal": (
        """\
        def run(trace, now):
            trace.emit(now, "emitter", "fault", task="t")
        """,
        [("NEON401", 2)],
    ),
    "unregistered-event-kind-literal": (
        """\
        def run(trace, now):
            trace.emit(now, "emitter", "no.such.kind", task="t")
        """,
        [("NEON401", 2)],
    ),
    "registered-span-literal": (
        """\
        def run(trace, now):
            trace.emit(now, "scheduler", "barrier_begin", task="t")
        """,
        [("NEON401", 2)],
    ),
    "unregistered-span-literal": (
        """\
        def run(trace, now):
            trace.emit(now, "scheduler", "my.phase_begin", task="t")
        """,
        [("NEON401", 2)],
    ),
    "fault-point-literal": (
        """\
        def plan(faults):
            faults.arm("gpu.request_hang", task="t")
        """,
        [("NEON403", 2)],
    ),
    "literal-plus-unused-import": (
        """\
        import json

        def run(trace, now):
            trace.emit(now, "emitter", "fault", task="t")
        """,
        [("NEON505", 1), ("NEON401", 4)],
    ),
    "unused-import": (
        """\
        import json
        import sys

        print(sys.path)
        """,
        [("NEON505", 1)],
    ),
    "unused-alias-in-multi-alias-import": (
        """\
        from os.path import join, split

        print(join('a'))
        """,
        [("NEON505", 1)],
    ),
}


@pytest.mark.parametrize("case", sorted(_DETECTIONS))
def test_full_run_detects(tmp_path, case):
    source, expected = _DETECTIONS[case]
    _repro_module(tmp_path, "mod.py", source)
    result = run_analysis([tmp_path], Config())
    assert sorted(
        (violation.rule_id, violation.line) for violation in result.violations
    ) == sorted(expected)


def test_unused_alias_finding_names_the_alias(tmp_path):
    source, _ = _DETECTIONS["unused-alias-in-multi-alias-import"]
    _repro_module(tmp_path, "mod.py", source)
    (violation,) = run_analysis([tmp_path], Config()).violations
    assert "'split'" in violation.message
