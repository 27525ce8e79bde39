"""Dynamic Table 1 calibration: emergent round times vs the paper.

Runs each application standalone under direct access and checks the
measured round time and mean request size stay within tolerance of the
paper's Table 1.  These are the anchors for every slowdown result.
"""

import pytest

from repro.experiments.cells import CellSpec, WorkloadSpec
from repro.workloads.profiles import APP_PROFILES

#: Round-time tolerance: jitter, submission costs, and pipelining make the
#: emergent round drift from the static sum.
ROUND_TOLERANCE = 0.20


def _solo(name):
    cell = CellSpec.solo(WorkloadSpec.app(name), 120_000.0, 20_000.0)
    return cell.run()[name]


@pytest.mark.parametrize("name", sorted(APP_PROFILES))
def test_round_time_matches_paper(name):
    profile = APP_PROFILES[name]
    result = _solo(name)
    assert result.rounds.count > 3
    measured = result.rounds.mean_us
    assert measured == pytest.approx(profile.paper_round_us, rel=ROUND_TOLERANCE), (
        f"{name}: measured round {measured:.0f}us vs paper "
        f"{profile.paper_round_us:.0f}us"
    )


@pytest.mark.parametrize("name", ["DCT", "FFT", "BitonicSort", "glxgears"])
def test_mean_request_size_matches_paper(name):
    profile = APP_PROFILES[name]
    result = _solo(name)
    assert result.mean_request_us == pytest.approx(
        profile.paper_request_us, rel=0.10
    )
