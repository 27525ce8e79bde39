"""neonlint — AST-based enforcement of the repro architecture contract.

The reproduction's central claim (DESIGN.md, paper Section 3) is that
schedulers act only on information observable through the interception
interface — faults, reference counters, ring-buffer scans — never on
ground-truth device state.  The code encodes that as "all device knowledge
flows through :class:`~repro.neon.interception.InterceptionManager`", and
this package machine-checks it, the way the eBPF verifier checks GPU
scheduling policies in the extensible-OS-policy line of work.

Five rule families, in two layers:

* **boundary** (``NEON1xx``, per-file) — modules under ``repro.core`` may
  not import ``repro.gpu``/``repro.osmodel`` internals at runtime nor
  dereference ground-truth channel/device attributes;
* **determinism** (``NEON2xx``, per-file) — no wall clocks, no stdlib
  ``random``, no unseeded/global numpy RNG outside the seeded-stream
  registry, no iteration over unordered sets;
* **generator discipline** (``NEON3xx``) — virtual-time-consuming
  generator methods must be driven with ``yield from`` (NEON301/302
  resolve each call through the project model); engagement flip counts
  must not be silently discarded (NEON303, per-file);
* **typed registries** (``NEON4xx``, per-file) — trace event kinds and
  fault injection points must be registered constants, never literals;
* **whole-program** (``NEON5xx``) — over a linked module/import/call
  graph of all of ``src/``: no boundary taint laundered through helper
  modules (the finding carries the full call chain), no RNG streams
  flowing into client modules, observation clients restricted to the
  declared ``InterceptionManager`` API, no dead registry entries, no
  unused imports (re-export aware).

Run it with ``python -m repro.staticcheck src`` or ``repro staticcheck``:
one serial pass that parses each file once and runs both layers over
that parse.  ``--format sarif`` exports to code scanning.  Every finding
fails the run; the one way to excuse a finding is an inline
``# neonlint: allow[RULE] reason`` pragma on the flagged line.  See ``docs/STATIC_ANALYSIS.md`` for the full rule catalog, the
suppression audit, and the whole-program-rule authoring guide.
"""

from repro.staticcheck.config import Config
from repro.staticcheck.core import Violation, collect_files
from repro.staticcheck.engine import AnalysisResult, AnalysisStats, run_analysis
from repro.staticcheck.rules import RULES

__all__ = [
    "AnalysisResult",
    "AnalysisStats",
    "Config",
    "RULES",
    "Violation",
    "collect_files",
    "run_analysis",
]
