"""The sanctioned host wall-clock accessor.

The simulation runs on virtual time and must never read the host clock
(neonlint NEON201).  Host-side code that measures its own cost — the
progress renderer, neonlint's ``--stats`` timing — calls
:func:`host_clock` instead, so the NEON201 exemption stays two audited
modules (``host_clock_modules``): this one and the cell farm.
"""

from __future__ import annotations

import time


def host_clock() -> float:
    """Monotonic host seconds (``time.perf_counter``)."""
    return time.perf_counter()
