"""Fold a cProfile capture into host self time and call counts per layer.

The capture is ``cProfile.Profile.stats`` after ``create_stats()``; it stays
in memory until the run prints its metrics.

A layer is a ``repro.<package>``; ``repro.sim`` is split by module because
it carries about half of the host time.  Functions implemented in C
(``len``, ``list.append``, ``heapq.heappush`` ...) form the ``builtins``
layer; everything else (the standard library, this benchmark, the other
``repro`` packages such as ``analysis``) is ``other``.
"""

from __future__ import annotations

import os

SIM_MODULES = ("engine", "queues", "process", "events", "trace")

LAYERS = tuple(f"sim.{name}" for name in SIM_MODULES) + (
    "sim.rest",
    "gpu",
    "osmodel",
    "neon",
    "core",
    "workloads",
    "obs",
    "experiments",
    "fleet",
    "metrics",
    "faults",
    "builtins",
    "other",
)

#: Share of the traced wall time the summed self times may miss or exceed:
#: the profiler's own bookkeeping between calls is in no function's self time.
SELF_SUM_TOLERANCE = 0.05

_REPRO_DIR = os.sep + "repro" + os.sep
_FLAT = frozenset(LAYERS) - {"builtins", "other"}


def layer_of(filename: str) -> str:
    """The layer a profiled code object belongs to, from its file name."""
    if filename == "~":
        return "builtins"
    _head, sep, rest = filename.rpartition(_REPRO_DIR)
    if not sep:
        return "other"
    package, _, module = rest.partition(os.sep)
    if package == "sim":
        module = module[:-3] if module.endswith(".py") else module
        return f"sim.{module}" if module in SIM_MODULES else "sim.rest"
    return package if package in _FLAT else "other"


def fold(stats: dict) -> dict[str, dict[str, float]]:
    """Per layer: ``self_s`` (summed tottime) and ``calls_in``.

    ``calls_in`` counts calls whose caller lies in another layer, read from
    cProfile's caller edges (each edge carries its own call count).
    """
    totals = {layer: {"self_s": 0.0, "calls_in": 0} for layer in LAYERS}
    for (filename, _line, _name), entry in stats.items():
        _cc, _nc, tottime, _cumtime, callers = entry
        layer = layer_of(filename)
        totals[layer]["self_s"] += tottime
        for (caller_file, _cl, _cn), edge in callers.items():
            if layer_of(caller_file) != layer:
                totals[layer]["calls_in"] += edge[0]
    return totals
