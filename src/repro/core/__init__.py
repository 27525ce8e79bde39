"""Schedulers — the paper's contribution and its baselines.

The paper's three schedulers:

* :class:`~repro.core.timeslice.TimesliceScheduler` — token-based
  timeslicing with overuse control; fully engaged (every request trapped).
* :class:`~repro.core.disengaged_timeslice.DisengagedTimeslice` — the token
  holder runs with direct device access; the kernel re-engages only at
  timeslice edges.
* :class:`~repro.core.disengaged_fq.DisengagedFairQueueing` — free-run
  direct access punctuated by engagement episodes (barrier, drain, sampling,
  virtual-time maintenance, denial decisions); probabilistic fairness with
  work-conserving behaviour.  The
  :class:`~repro.core.disengaged_fq.DisengagedFairQueueingHW` variant models
  vendor-provided usage statistics (Sections 3.3/6.1).

Baselines: :class:`~repro.core.direct.DirectAccess` (no OS management) and
the related-work per-request schedulers — start-time fair queueing
(:mod:`~repro.core.fair_queueing`), deficit round-robin à la GERM
(:mod:`~repro.core.drr`), and a Gdev-style credit scheduler
(:mod:`~repro.core.credit`) — each a set of admit, charge and order rules
on the engaged skeleton :class:`~repro.core.engaged.EngagedScheduler`.
"""

from repro.core.base import SchedulerBase, scheduler_registry
from repro.core.credit import CreditScheduler
from repro.core.direct import DirectAccess
from repro.core.disengaged_fq import (
    DisengagedFairQueueing,
    DisengagedFairQueueingHW,
)
from repro.core.disengaged_timeslice import DisengagedTimeslice
from repro.core.drr import DeficitRoundRobin
from repro.core.fair_queueing import EngagedFairQueueing
from repro.core.timeslice import TimesliceScheduler
from repro.core.virtual_time import VirtualTimeTable

__all__ = [
    "CreditScheduler",
    "DeficitRoundRobin",
    "DirectAccess",
    "DisengagedFairQueueing",
    "DisengagedFairQueueingHW",
    "DisengagedTimeslice",
    "EngagedFairQueueing",
    "SchedulerBase",
    "TimesliceScheduler",
    "VirtualTimeTable",
    "scheduler_registry",
]
