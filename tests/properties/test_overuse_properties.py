"""Property-based tests for the overuse ledger."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.overuse import OveruseLedger
from repro.osmodel.task import Task

charges = st.lists(
    st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
    min_size=1,
    max_size=50,
)


@given(charges, st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=60)
def test_conservation_of_charged_overuse(charge_list, timeslice):
    """Total skips x timeslice + residual accrual == total charged."""
    ledger = OveruseLedger(timeslice)
    task = Task("t", 1)
    skips = 0
    for charge in charge_list:
        ledger.charge(task, charge)
        while ledger.should_skip(task):
            skips += 1
    residual = ledger.accrued(task)
    total = sum(charge_list)
    assert abs(skips * timeslice + residual - total) < 1e-6 * max(total, 1.0)
    assert 0.0 <= residual < timeslice


@given(charges, st.floats(min_value=1.0, max_value=1e5))
@settings(max_examples=60)
def test_accrual_never_negative(charge_list, timeslice):
    ledger = OveruseLedger(timeslice)
    task = Task("t", 1)
    for charge in charge_list:
        ledger.charge(task, charge)
        ledger.should_skip(task)
        assert ledger.accrued(task) >= 0.0


@given(st.floats(min_value=0.0, max_value=0.999))
def test_sub_slice_overuse_never_skips(fraction):
    ledger = OveruseLedger(1000.0)
    task = Task("t", 1)
    ledger.charge(task, fraction * 1000.0)
    assert not ledger.should_skip(task)
