"""neonlint core — module contexts, pragma parsing, and per-file checking.

:func:`parse_module` turns a file into a :class:`ModuleContext` (path,
dotted module name, AST, raw source lines) or a NEON000 finding, once per
run.  Checkers are pure functions of a parsed module: :func:`check_module`
hands them the context and collects the :class:`Violation` records they
yield.  Suppression — the inline ``# neonlint: allow[RULE] reason``
pragma on the flagged line, the only way to excuse a finding — is applied
centrally here so every rule gets it for free.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Inline per-line allowlist pragma: ``# neonlint: allow[NEON102] reason``.
PRAGMA_RE = re.compile(r"neonlint:\s*allow\[([A-Za-z0-9_,\s]+)\]")

#: Rule id reported for files that do not parse.
PARSE_ERROR_RULE = "NEON000"


@dataclasses.dataclass(frozen=True, order=True)
class Violation:
    """One rule violation, anchored to a source location.

    Whole-program rules (NEON5xx) may attach a ``chain`` — the resolved
    call path that proves the finding — rendered as indented follow-up
    lines in text output and as related locations in SARIF.  Each hop is
    ``(qualified_name, path, line)``.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    chain: tuple[tuple[str, str, int], ...] = ()

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        head = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if not self.chain:
            return head
        hops = [
            f"    {index}. {qual}  ({path}:{line})"
            for index, (qual, path, line) in enumerate(self.chain, start=1)
        ]
        return "\n".join([head, "    call chain:"] + hops)


class ModuleContext:
    """A parsed module plus everything checkers need to judge it."""

    def __init__(self, path: Path, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        #: line number -> set of rule ids granted an audited exception.
        self.pragmas: dict[int, set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                self.pragmas.setdefault(lineno, set()).update(rules)

    def pragma_allows(self, line: int, rule_id: str) -> bool:
        return rule_id in self.pragmas.get(line, ())


def module_name_for(path: Path) -> str:
    """Dotted module name, derived from the ``__init__.py`` package chain.

    ``src/repro/core/base.py`` → ``repro.core.base``; a loose file outside
    any package is just its stem.
    """
    path = path.resolve()
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    return sorted(files)


def scope_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class scopes.

    The root's own body is walked even when the root is itself a function
    or class definition.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(child))


def parse_module(path: Path) -> "ModuleContext | Violation":
    """Parse one file; a file that cannot be read or parsed is NEON000."""
    try:
        source = path.read_text(encoding="utf-8")
        return ModuleContext(path, module_name_for(path), source)
    except (OSError, SyntaxError, ValueError) as exc:
        return Violation(
            path=str(path),
            line=getattr(exc, "lineno", 0) or 0,
            col=getattr(exc, "offset", 0) or 0,
            rule_id=PARSE_ERROR_RULE,
            message=f"file could not be analyzed: {exc}",
        )


def check_module(
    ctx: ModuleContext, config: "Config", checkers: Iterable
) -> list[Violation]:
    """Run the per-file checkers over one parsed module, applying pragmas.

    ``checkers`` comes from ``rules.build_checkers``, built once per run.
    """
    return [
        violation
        for checker in checkers
        for violation in checker.check(ctx, config)
        if not ctx.pragma_allows(violation.line, violation.rule_id)
    ]

