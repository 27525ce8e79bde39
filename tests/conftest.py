"""Shared fixtures: a bare simulator and a fully wired fast environment."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.experiments.runner import build_env
from repro.osmodel.costs import CostParams
from repro.sim.engine import Simulator

# Property tests are bounded by their example counts, not by wall time: a
# per-example deadline only measures how loaded the host is.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def quick_costs() -> CostParams:
    """Costs with short periods so integration tests converge quickly."""
    costs = CostParams()
    costs.timeslice_us = 5_000.0
    costs.sample_max_us = 1_000.0
    costs.max_request_us = 20_000.0
    return costs


@pytest.fixture
def env_factory():
    """Factory for wired environments with a chosen scheduler."""

    def factory(scheduler: str = "direct", seed: int = 0, **kwargs):
        return build_env(scheduler, seed=seed, **kwargs)

    return factory
