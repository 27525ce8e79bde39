"""``python -m repro.staticcheck`` / ``repro staticcheck`` — the CLI.

Modes layered on the analysis engine (one serial pass, one parse per
file):

* default — full run (per-file + whole-program rules); every finding
  fails the run.  The only way to excuse one is an inline
  ``# neonlint: allow[RULE] reason`` pragma on the flagged line.
* ``--changed`` — pre-commit mode: report only findings anchored in
  files changed since ``git merge-base HEAD main`` (the project model
  still links everything, so whole-program rules stay sound).  With no
  changed Python file, nothing is analyzed and the report is empty.
* ``--stats`` — print engine timing/coverage counters to stderr.

Exit codes: 0 no finding, 1 any finding, 2 usage error (unknown path,
git failure in ``--changed``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.staticcheck.config import Config
from repro.staticcheck.engine import run_analysis
from repro.staticcheck.report import format_report
from repro.staticcheck.rules import RULES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.staticcheck",
        description=(
            "neonlint: enforce the disengagement boundary, simulation "
            "determinism, virtual-time generator discipline, and the "
            "whole-program isolation proofs (docs/STATIC_ANALYSIS.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="only report findings in files changed vs merge-base with main",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine stats to stderr",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _changed_files() -> Optional[list[Path]]:
    """Files changed vs ``merge-base(HEAD, main)`` plus untracked files.

    Returns None when git is unavailable or the worktree is not a repo
    (the caller treats that as a usage error in ``--changed`` mode).
    """
    def _git(*argv: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", *argv], capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        return proc.stdout if proc.returncode == 0 else None

    base = None
    for candidate in ("main", "origin/main", "master"):
        out = _git("merge-base", "HEAD", candidate)
        if out is not None:
            base = out.strip()
            break
    if base is None:
        out = _git("rev-parse", "HEAD")
        if out is None:
            return None
        base = out.strip()
    diff = _git("diff", "--name-only", base)
    untracked = _git("ls-files", "--others", "--exclude-standard")
    if diff is None or untracked is None:
        return None
    top = _git("rev-parse", "--show-toplevel")
    root = Path(top.strip()) if top else Path.cwd()
    changed: list[Path] = []
    for line in (diff + untracked).splitlines():
        line = line.strip()
        if line.endswith(".py"):
            candidate = root / line
            if candidate.is_file():
                changed.append(candidate)
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule_id, description in sorted(RULES.items()):
            print(f"{rule_id}  {description}")
        return 0

    paths = [Path(path) for path in args.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2

    restrict_to: Optional[list[Path]] = None
    if args.changed:
        restrict_to = _changed_files()
        if restrict_to is None:
            print(
                "error: --changed requires a git worktree "
                "(merge-base/diff failed)",
                file=sys.stderr,
            )
            return 2
        if not restrict_to:
            if args.format == "text":
                print("clean: no changed python files")
            else:
                print(format_report([], 0, args.format, rules=RULES))
            return 0

    result = run_analysis(paths, Config(), restrict_to=restrict_to)
    print(
        format_report(
            result.violations,
            result.stats.files_checked,
            args.format,
            rules=RULES,
        )
    )
    if args.stats:
        print(result.stats.render(), file=sys.stderr)
    return 1 if result.violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
