"""Structural tests for the Table 1 application profiles."""

import pytest

from repro.gpu.request import RequestKind
from repro.workloads.apps import app_instances
from repro.workloads.profiles import APP_PROFILES

PAPER_APPS = {
    "BinarySearch", "BitonicSort", "DCT", "EigenValue",
    "FastWalshTransform", "FFT", "FloydWarshall", "LUDecomposition",
    "MatrixMulDouble", "MatrixMultiplication", "MatrixTranspose",
    "PrefixSum", "RadixSort", "Reduction", "ScanLargeArrays",
    "glxgears", "oclParticles", "simpleTexture3D",
}


def test_all_table1_apps_present():
    assert set(APP_PROFILES) == PAPER_APPS


@pytest.mark.parametrize("names, labels", [
    (["glxgears"], ["glxgears"]),
    (["glxgears", "BitonicSort", "BitonicSort", "BitonicSort"],
     ["glxgears", "BitonicSort", "BitonicSort.2", "BitonicSort.3"]),
    (["DCT", "FFT", "DCT", "FFT"], ["DCT", "FFT", "DCT.2", "FFT.2"]),
])
def test_app_instances_label_repeats(names, labels):
    # The one naming rule for inline runs (``repro trace record``,
    # ``repro why``, ``repro monitor run``): the first instance of an app
    # keeps its plain name, repeats count up from ``.2``.
    pairs = app_instances(names)
    assert [name for name, _ in pairs] == names
    assert [instance or name for name, instance in pairs] == labels


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_profile_well_formed(name):
    profile = APP_PROFILES[name]
    assert profile.name == name
    assert profile.bursts, "profile must submit something"
    assert profile.paper_round_us > 0
    assert profile.request_count_per_round > 0
    for burst in profile.bursts:
        assert all(size > 0 for size in burst.sizes)
    assert (profile.paper_request_us is None) != (
        profile.paper_request_split is None
    ), "exactly one request-size reference"


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_gpu_work_fits_in_round(name):
    """Request sizes must sum to no more than the paper's round time for
    blocking bursts (requests serialize within a round)."""
    profile = APP_PROFILES[name]
    blocking_work = sum(
        sum(burst.sizes)
        for burst in profile.bursts
        if burst.blocking and burst.kind is not RequestKind.DMA
    )
    assert blocking_work <= profile.paper_round_us * 1.1


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_compute_graphics_mean_matches_paper(name):
    """Static calibration: per-kind mean sizes near Table 1 references."""
    profile = APP_PROFILES[name]
    sizes = [
        size
        for burst in profile.bursts
        if burst.kind is not RequestKind.DMA
        for size in burst.sizes
    ]
    mean = sum(sizes) / len(sizes)
    if profile.paper_request_us is not None:
        assert mean == pytest.approx(profile.paper_request_us, rel=0.05)
    else:
        compute_ref, graphics_ref = profile.paper_request_split
        for kind, reference in (
            (RequestKind.COMPUTE, compute_ref),
            (RequestKind.GRAPHICS, graphics_ref),
        ):
            kind_sizes = [
                size
                for burst in profile.bursts
                if burst.kind is kind
                for size in burst.sizes
            ]
            kind_mean = sum(kind_sizes) / len(kind_sizes)
            assert kind_mean == pytest.approx(reference, rel=0.05)


def test_combined_apps_have_two_request_kinds():
    for name in ("oclParticles", "simpleTexture3D"):
        kinds = set(APP_PROFILES[name].kinds())
        assert {RequestKind.COMPUTE, RequestKind.GRAPHICS} <= kinds


def test_graphics_only_app():
    assert APP_PROFILES["glxgears"].kinds() == (RequestKind.GRAPHICS,)
