"""Tests for the register-page protection model."""

from repro.osmodel.pagetable import RegisterPage


def test_starts_unprotected():
    page = RegisterPage(1)
    assert not page.protected


def test_protect_unprotect_cycle():
    page = RegisterPage(1)
    page.protect()
    assert page.protected
    page.unprotect()
    assert not page.protected


def test_protect_count_counts_transitions_only():
    page = RegisterPage(1)
    page.protect()
    page.protect()  # already protected: not a transition
    assert page.protect_count == 1
    page.unprotect()
    page.protect()
    assert page.protect_count == 2
