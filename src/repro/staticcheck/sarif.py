"""SARIF 2.1.0 export — CI code-scanning annotations for neonlint.

Emits one run with the full rule catalog in ``tool.driver.rules`` and one
``result`` per violation.  NEON501 call chains become both a
``codeFlows`` thread (the full path, hop by hop) and ``relatedLocations``
so GitHub's annotation UI can render the laundering route inline.

The output targets the OASIS SARIF 2.1.0 schema
(https://json.schemastore.org/sarif-2.1.0.json); structural conformance
is pinned by tests/staticcheck/test_sarif.py.  URIs are emitted
repo-relative (POSIX separators) when a ``root`` is given so the GitHub
upload step can match them against the checkout.

Each result carries a ``partialFingerprints`` entry so code scanning can
track a finding across pushes.  Fingerprints must survive unrelated edits
(line drift, renames above the finding) while still pinning the finding
itself.  Each is a SHA-256 over

* the rule id,
* the file's repo-relative path suffix,
* the violation message with line/column digits normalized out (NEON501
  chains embed line numbers that drift),
* the source text of the anchored line, whitespace-stripped.

Line numbers are deliberately *not* part of the hash, so two identical
findings on identical source lines in one file share a fingerprint.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Optional, Sequence

from repro.staticcheck.core import Violation

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: Informational URI advertised for every rule.
_HELP_URI = "https://github.com/repro/repro/blob/main/docs/STATIC_ANALYSIS.md"

_NUMBER_RE = re.compile(r"\b\d+\b")


def _normalize_message(message: str) -> str:
    return _NUMBER_RE.sub("N", message)


def _path_suffix(path: str, parts: int = 4) -> str:
    return "/".join(Path(path).as_posix().split("/")[-parts:])


def _anchor_line_text(violation: Violation, source_cache: dict[str, list[str]]) -> str:
    lines = source_cache.get(violation.path)
    if lines is None:
        try:
            lines = Path(violation.path).read_text(encoding="utf-8").splitlines()
        except OSError:
            lines = []
        source_cache[violation.path] = lines
    if 1 <= violation.line <= len(lines):
        return lines[violation.line - 1].strip()
    return ""


def fingerprint(
    violation: Violation, source_cache: Optional[dict[str, list[str]]] = None
) -> str:
    """Stable fingerprint for one finding; see the module docstring."""
    if source_cache is None:
        source_cache = {}
    payload = "\x1f".join(
        (
            violation.rule_id,
            _path_suffix(violation.path),
            _normalize_message(violation.message),
            _anchor_line_text(violation, source_cache),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _relative_uri(path: str, root: Optional[Path]) -> str:
    candidate = Path(path)
    if root is not None:
        try:
            candidate = candidate.resolve().relative_to(Path(root).resolve())
        except ValueError:
            pass
    return candidate.as_posix()


def _location(path: str, line: int, col: int, root: Optional[Path]) -> dict:
    region: dict = {"startLine": max(1, line)}
    if col:
        region["startColumn"] = col + 1  # SARIF columns are 1-based
    return {
        "physicalLocation": {
            "artifactLocation": {
                "uri": _relative_uri(path, root),
                "uriBaseId": "SRCROOT",
            },
            "region": region,
        }
    }


def _result(violation: Violation, root: Optional[Path], source_cache: dict) -> dict:
    result = {
        "ruleId": violation.rule_id,
        "level": "error",
        "message": {"text": violation.message},
        "locations": [
            _location(violation.path, violation.line, violation.col, root)
        ],
        "partialFingerprints": {
            "neonlintFingerprint/v1": fingerprint(violation, source_cache)
        },
    }
    if violation.chain:
        result["relatedLocations"] = [
            {
                **_location(hop_path, hop_line, 0, root),
                "message": {"text": qual},
            }
            for qual, hop_path, hop_line in violation.chain
        ]
        result["codeFlows"] = [
            {
                "threadFlows": [
                    {
                        "locations": [
                            {
                                "location": {
                                    **_location(hop_path, hop_line, 0, root),
                                    "message": {"text": qual},
                                }
                            }
                            for qual, hop_path, hop_line in violation.chain
                        ]
                    }
                ]
            }
        ]
    return result


def to_sarif(
    violations: Sequence[Violation],
    rules: dict[str, str],
    root: Optional[Path] = None,
) -> dict:
    """Build the SARIF log object (JSON-able dict)."""
    source_cache: dict[str, list[str]] = {}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "neonlint",
                        "informationUri": _HELP_URI,
                        "rules": [
                            {
                                "id": rule_id,
                                "name": rule_id,
                                "shortDescription": {"text": description},
                                "helpUri": _HELP_URI,
                                "defaultConfiguration": {"level": "error"},
                            }
                            for rule_id, description in sorted(rules.items())
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {
                        "uri": (
                            Path(root).resolve().as_uri() + "/"
                            if root is not None
                            else "file:///"
                        )
                    }
                },
                "results": [
                    _result(violation, root, source_cache)
                    for violation in violations
                ],
            }
        ],
    }


def format_sarif(
    violations: Sequence[Violation],
    rules: dict[str, str],
    root: Optional[Path] = None,
) -> str:
    return json.dumps(to_sarif(violations, rules, root), indent=2)


__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "fingerprint", "format_sarif", "to_sarif"]
