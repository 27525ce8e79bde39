"""SARIF 2.1.0 export: structural conformance, chain rendering, fingerprints."""

import json

from repro.staticcheck.core import Violation
from repro.staticcheck.report import format_report
from repro.staticcheck.rules import RULES
from repro.staticcheck.sarif import SARIF_SCHEMA, SARIF_VERSION, fingerprint, to_sarif


def _chained(path):
    return Violation(
        path=str(path),
        line=11,
        col=4,
        rule_id="NEON501",
        message="call chain reaches device-internal code",
        chain=(
            ("repro.core.launderer.decide", str(path), 11),
            ("repro.helpers.relay.probe", str(path), 10),
            ("repro.gpu.device.read_queue", str(path), 4),
        ),
    )


def test_sarif_skeleton(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    plain = Violation(str(mod), 1, 0, "NEON505", "'json' is unused")
    log = to_sarif([plain], RULES, root=tmp_path)
    assert log["version"] == SARIF_VERSION
    assert log["$schema"] == SARIF_SCHEMA
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "neonlint"
    ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    assert ids == sorted(RULES)
    result = run["results"][0]
    assert result["ruleId"] == "NEON505"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "mod.py"  # repo-relative
    assert location["region"]["startLine"] == 1
    assert "neonlintFingerprint/v1" in result["partialFingerprints"]


def test_sarif_chain_becomes_code_flow(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("\n" * 12)
    log = to_sarif([_chained(mod)], RULES, root=tmp_path)
    result = log["runs"][0]["results"][0]
    related = result["relatedLocations"]
    assert [loc["message"]["text"] for loc in related] == [
        "repro.core.launderer.decide",
        "repro.helpers.relay.probe",
        "repro.gpu.device.read_queue",
    ]
    flow = result["codeFlows"][0]["threadFlows"][0]["locations"]
    assert len(flow) == 3
    assert flow[-1]["location"]["message"]["text"] == "repro.gpu.device.read_queue"


def test_sarif_is_json_serializable_and_dispatches(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    plain = Violation(str(mod), 1, 0, "NEON000", "boom")
    text = format_report([plain], 1, "sarif", rules=RULES, root=tmp_path)
    parsed = json.loads(text)
    assert parsed["runs"][0]["results"][0]["ruleId"] == "NEON000"


def test_sarif_columns_are_one_based(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("x = 1\n")
    shifted = Violation(str(mod), 1, 4, "NEON505", "msg")
    log = to_sarif([shifted], RULES, root=tmp_path)
    region = log["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startColumn"] == 5


def _violation(path, line, rule="NEON505", message="'json' is unused"):
    return Violation(path=str(path), line=line, col=0, rule_id=rule, message=message)


def test_fingerprint_survives_line_drift(tmp_path):
    before = tmp_path / "before.py"
    before.write_text("import json\n")
    drifted = tmp_path / "before.py"  # same file, edited above the finding
    old = fingerprint(_violation(before, 1))
    before.write_text("# a new comment pushed everything down\n\nimport json\n")
    new = fingerprint(_violation(drifted, 3))
    assert old == new


def test_fingerprint_distinguishes_rule_and_source(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\nimport sys\n")
    assert fingerprint(_violation(path, 1)) != fingerprint(_violation(path, 2))
    assert fingerprint(_violation(path, 1)) != fingerprint(
        _violation(path, 1, rule="NEON202")
    )


def test_fingerprint_normalizes_embedded_line_numbers(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import json\n")
    left = _violation(path, 1, message="created at rng.py:17 flows in")
    right = _violation(path, 1, message="created at rng.py:99 flows in")
    assert fingerprint(left) == fingerprint(right)
