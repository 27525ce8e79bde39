"""Rule catalog and checker registry.

Rule ids are stable: tests, pragmas, and allowlists refer to them, so they
must never be renumbered, and a retired id (NEON406) is never reused.  New
rules append within their family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.staticcheck.rules.boundary import BoundaryChecker
from repro.staticcheck.rules.determinism import DeterminismChecker
from repro.staticcheck.rules.generators import GeneratorChecker
from repro.staticcheck.rules.registries import RegisteredNameChecker

if TYPE_CHECKING:  # pragma: no cover
    from repro.staticcheck.config import Config

#: Rule id -> one-line description (the ``--list-rules`` catalog).
RULES: dict[str, str] = {
    "NEON000": "file could not be parsed/analyzed",
    "NEON101": "boundary module imports repro.gpu/repro.osmodel internals at runtime",
    "NEON102": "boundary module dereferences a ground-truth channel/device attribute",
    "NEON201": "wall-clock read (time.time/datetime.now/...) in simulation code",
    "NEON202": "stdlib random imported outside the seeded-stream registry",
    "NEON203": "unseeded or global numpy RNG outside the seeded-stream registry",
    "NEON204": "iteration over an unordered set feeds nondeterministic decisions",
    "NEON301": "virtual-time generator called but discarded (missing yield from)",
    "NEON302": "generator yielded as an object (yield instead of yield from)",
    "NEON303": "engagement flip count discarded (page-flip cost never charged)",
    "NEON401": "trace.emit called with a string-literal event kind",
    "NEON402": "trace.emit kind constant not registered in repro.obs.events",
    "NEON403": "faults.arm called with a string-literal injection point",
    "NEON404": "faults.arm point constant not registered in repro.faults.registry",
    "NEON501": "call chain from a boundary module reaches device-internal state",
    "NEON502": "RNG stream escapes to module scope or flows into scheduler/workload code",
    "NEON503": "observation client touches an attribute outside the declared observation API",
    "NEON504": "registry entry (event kind / fault point) never emitted/armed in the program",
    "NEON505": "import is never used (whole-program re-export aware for __init__)",
}

_CHECKERS = (
    BoundaryChecker,
    DeterminismChecker,
    GeneratorChecker,
    RegisteredNameChecker,
)


def build_checkers(config: "Config"):
    """Instantiate one checker per rule family."""
    return [checker() for checker in _CHECKERS]


__all__ = ["RULES", "build_checkers"]
