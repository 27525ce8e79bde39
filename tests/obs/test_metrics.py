"""Counters, latency samples, and the registry's task view."""

import pytest

from repro.obs.metrics import Counter, MetricsRegistry, summarize_samples


def test_counter_increments_per_label():
    counter = Counter("faults")
    counter.inc("a")
    counter.inc("a", 2.0)
    counter.inc("b")
    assert counter.value("a") == 3.0
    assert counter.value("b") == 1.0
    assert counter.value("missing") == 0.0
    assert counter.total == 4.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").inc("a", -1.0)


def test_histogram_stats():
    count, mean, p95 = summarize_samples([5.0, 50.0, 500.0, 5000.0])
    assert count == 4.0
    assert mean == pytest.approx(1388.75)
    # rank 3.8: the fourth sample's bucket, (2000, 5000].
    assert p95 == 5000.0
    assert summarize_samples([]) == (0.0, 0.0, 0.0)


def test_histogram_quantile_bucket_resolution():
    samples = [5.0] * 19 + [50.0]
    # rank 19.0 is reached inside the (0, 10] bucket.
    assert summarize_samples(samples)[2] == 10.0
    samples.append(15.0)
    # rank 19.95: the 20th sample by bucket order sits in (10, 20].
    assert summarize_samples(samples)[2] == 20.0
    assert summarize_samples([1e9])[2] == float("inf")
    # A value on a bound falls in that bound's bucket.
    assert summarize_samples([100.0])[2] == 100.0


def test_registry_reuses_instruments():
    registry = MetricsRegistry()
    assert registry.counter("faults") is registry.counter("faults")
    assert registry.samples("lat") is registry.samples("lat")
    registry.inc("faults", "a")
    registry.inc("faults", "a")
    assert registry.counter("faults").value("a") == 2.0


def test_task_view_flat_and_uniform():
    registry = MetricsRegistry()
    registry.inc("faults", "a", 3.0)
    registry.samples("lat")["a"].append(100.0)
    view_a = registry.task_view("a")
    assert view_a["faults"] == 3.0
    assert view_a["lat_count"] == 1.0
    assert view_a["lat_mean"] == 100.0
    assert view_a["lat_p95"] > 0.0
    # A task with no data gets the same keys, all zeros.
    view_b = registry.task_view("b")
    assert set(view_b) == set(view_a)
    assert all(value == 0.0 for value in view_b.values())
    # Summarizing records nothing for the absent task.
    assert "b" not in registry.samples("lat")


# ----------------------------------------------------------------------
# Registry completeness: the KNOWN_COUNTERS catalog cannot silently drift
# from the counter names the source tree actually bumps.
# ----------------------------------------------------------------------

def _instrument_names(pattern):
    import re
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    regex = re.compile(pattern)
    found = {}
    for path in sorted(src.rglob("*.py")):
        if path.name == "metrics.py":
            continue  # the catalog itself
        for name in regex.findall(path.read_text()):
            found.setdefault(name, str(path.relative_to(src)))
    return found


def test_every_counter_site_is_cataloged():
    from repro.obs.metrics import KNOWN_COUNTERS

    sites = _instrument_names(
        r"""metrics\.(?:inc|counter)\(\s*["']([a-z_]+)["']"""
    )
    assert sites, "the scan found no counter sites at all (regex broken?)"
    unknown = {n: f for n, f in sites.items() if n not in KNOWN_COUNTERS}
    assert not unknown, f"counters bumped but not in KNOWN_COUNTERS: {unknown}"


def test_monitor_counters_are_cataloged():
    from repro.obs.metrics import KNOWN_COUNTERS

    for name in ("windows_closed", "slo_violations", "slo_recoveries"):
        assert name in KNOWN_COUNTERS
