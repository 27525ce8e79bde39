"""Tests for the paper claims and the measurements that score them."""

import dataclasses
import subprocess
import sys

from repro.analysis import reference
from repro.analysis.reference import PAPER, measure, shape_report


def test_claims_have_valid_bands():
    for claim in PAPER.values():
        assert claim.low <= claim.high
        # The paper's own value, where it gives one, sits inside the band.
        if claim.paper_value is not None:
            assert claim.low <= claim.paper_value <= claim.high, claim.key


def test_every_claim_names_its_measurement():
    for key, claim in PAPER.items():
        assert claim.key == key
        assert callable(claim.run) and callable(claim.score), key
        # The measurement sits beside the claim, at the claim's scale.
        assert claim.run.__module__ == reference.__name__, key


def test_accepts_is_inclusive():
    claim = PAPER["dos_context_limit"]
    assert claim.accepts(48.0)
    assert not claim.accepts(47.0)
    assert not claim.accepts(float("nan"))


def test_shape_report_verdicts():
    report = shape_report(
        {"dos_context_limit": 48.0, "fig6_fair_pair_slowdown": 9.0}
    )
    assert "ok" in report
    assert "OUT OF BAND" in report


def test_shape_report_unknown_key():
    assert "UNKNOWN CLAIM" in shape_report({"bogus": 1.0})


def test_shape_report_directional_claim_has_no_paper_number():
    claim = PAPER["fig9_dfq_vs_ts_dct_slowdown"]
    assert claim.paper_value is None
    assert "(paper -, band [0, 1])" in shape_report({claim.key: 0.5})


def test_headline_claims_present():
    for key in (
        "fig4_dts_max_overhead",
        "fig4_dfq_max_overhead",
        "fig6_direct_dct_large_throttle",
        "fig7_dfq_mean_loss",
        "fig7_dfq_max_loss",
        "dos_context_limit",
        "gears_anomaly_disparity",
    ):
        assert key in PAPER


def test_claims_that_share_a_run_share_its_result():
    calls = []

    def run(seed, farm):
        calls.append((seed, farm))
        return [seed, 2.0]

    claims = [
        dataclasses.replace(PAPER["dos_context_limit"], key="a", run=run,
                            score=lambda result: result[0]),
        dataclasses.replace(PAPER["dos_context_limit"], key="b", run=run,
                            score=lambda result: result[1]),
    ]
    cache = {}
    assert measure(claims, seed=3, workers=2, cache=cache) == {"a": 3.0,
                                                               "b": 2.0}
    assert calls == [(3, {"workers": 2, "cache": cache})]


def test_a_cheap_claim_scores_in_band():
    claim = PAPER["dos_context_limit"]
    assert measure([claim]) == {"dos_context_limit": 48.0}


def test_importing_reference_loads_no_driver():
    # perfbench imports PAPER; the drivers load only when a claim runs.
    code = (
        "import sys, repro.analysis.reference\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('repro.experiments.')\n"
        "             and m.rsplit('.', 1)[1].startswith(\n"
        "                 ('figure', 'table', 'section', 'ablations',\n"
        "                  'protection', 'preemption'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
