"""Tests for the overuse ledger."""

import pytest

from repro.core.overuse import OveruseLedger
from repro.osmodel.task import Task


@pytest.fixture
def task():
    return Task("t", 1)


def test_no_skip_without_charge(task):
    ledger = OveruseLedger(30_000.0)
    assert not ledger.should_skip(task)


def test_charge_below_slice_does_not_skip(task):
    ledger = OveruseLedger(30_000.0)
    ledger.charge(task, 29_999.0)
    assert not ledger.should_skip(task)
    assert ledger.accrued(task) == 29_999.0


def test_skip_deducts_one_timeslice(task):
    ledger = OveruseLedger(30_000.0)
    ledger.charge(task, 45_000.0)
    assert ledger.should_skip(task)
    assert ledger.accrued(task) == 15_000.0
    assert not ledger.should_skip(task)


def test_large_overuse_skips_multiple_turns(task):
    ledger = OveruseLedger(30_000.0)
    ledger.charge(task, 100_000.0)
    skips = 0
    while ledger.should_skip(task):
        skips += 1
    assert skips == 3
    assert ledger.accrued(task) == 10_000.0


def test_charges_accumulate(task):
    ledger = OveruseLedger(30_000.0)
    ledger.charge(task, 20_000.0)
    ledger.charge(task, 20_000.0)
    assert ledger.should_skip(task)


def test_negative_charge_rejected(task):
    ledger = OveruseLedger(30_000.0)
    with pytest.raises(ValueError):
        ledger.charge(task, -1.0)


@pytest.mark.parametrize(
    "bogus", [float("nan"), float("inf"), float("-inf")]
)
def test_non_finite_charge_rejected(task, bogus):
    ledger = OveruseLedger(30_000.0)
    with pytest.raises(ValueError, match="finite"):
        ledger.charge(task, bogus)
    # The rejected charge must not have touched the ledger.
    assert ledger.accrued(task) == 0.0
    assert not ledger.should_skip(task)


def test_invalid_timeslice_rejected():
    with pytest.raises(ValueError):
        OveruseLedger(0.0)


def test_forget_clears_state(task):
    ledger = OveruseLedger(30_000.0)
    ledger.charge(task, 50_000.0)
    ledger.forget(task)
    assert not ledger.should_skip(task)
