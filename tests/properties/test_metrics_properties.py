"""Property-based tests for the registry's latency summary.

The reference is the bucketed histogram the registry used to update on
every completion: a running sum, per-bucket counts, and a bucket-resolution
quantile.  The summary computed from raw samples at snapshot time must
match it bit for bit.
"""

import math
from bisect import bisect_left

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import DEFAULT_BUCKETS_US, MetricsRegistry

#: Ten 0.1 µs samples: the running sum is 0.9999999999999999 while
#: ``math.fsum`` (and ``sum()`` on Python 3.12+) gives 1.0.
UNCOMPENSATED = [0.1] * 10


def reference_summary(values, buckets=DEFAULT_BUCKETS_US, q=0.95):
    """count/mean/quantile as the per-observation histogram computed them."""
    counts = [0] * (len(buckets) + 1)
    total = 0.0
    count = 0
    for value in values:
        counts[bisect_left(buckets, value)] += 1
        total += value
        count += 1
    if not count:
        return 0.0, 0.0, 0.0
    rank = q * count
    seen = 0
    quantile = float("inf")
    for position, bucket_count in enumerate(counts):
        seen += bucket_count
        if seen >= rank and bucket_count:
            if position < len(buckets):
                quantile = buckets[position]
            break
    return float(count), total / count, quantile


latencies = st.one_of(
    st.sampled_from(DEFAULT_BUCKETS_US),  # exactly on a bucket bound
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e6, max_value=1e9, allow_nan=False),  # overflow
)


@given(st.lists(latencies, max_size=60))
@settings(max_examples=200)
@example([])
@example([42.0])
@example([2e6])
@example([1_000_000.0])
@example(UNCOMPENSATED)
def test_summary_matches_the_bucketed_histogram(values):
    registry = MetricsRegistry()
    registry.samples("lat")["t"].extend(values)
    view = registry.task_view("t")
    summary = (view["lat_count"], view["lat_mean"], view["lat_p95"])
    assert summary == reference_summary(values)
    if values and max(values) > DEFAULT_BUCKETS_US[-1] and len(values) < 20:
        # Under 20 samples the p95 rank is the largest sample's.
        assert view["lat_p95"] == float("inf")


def test_uncompensated_example_separates_running_sum_from_fsum():
    # Keeps the example above meaningful: a compensated-sum mean fails it.
    running = 0.0
    for value in UNCOMPENSATED:
        running += value
    assert running != math.fsum(UNCOMPENSATED)
