"""Observability: typed trace events, metrics, export, and analysis.

The observability layer sits *beside* the simulation, not inside it:

* :mod:`repro.obs.events` — the registry of typed trace event kinds.
  Every ``trace.emit`` call site in the package names a registered
  constant (enforced by neonlint rules NEON401/NEON402).
* :mod:`repro.obs.metrics` — per-task / per-scheduler counters and
  histograms (:class:`MetricsRegistry`), snapshotted into experiment
  results.
* :mod:`repro.obs.engagement` — per-task engaged vs. disengaged time
  accounting, fed by the interception layer's page flips, and its one
  replay from a recorded trace.
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto)
  export/import.
* :mod:`repro.obs.overhead` — reconstructs the paper's engagement
  overhead breakdown (drain wait / sampling / other engagement /
  free-run) from a trace alone.
* :mod:`repro.obs.summary` — per-task trace summaries and trace diffs.
* :mod:`repro.obs.clock` — the sanctioned host wall-clock accessor (the
  one neonlint-whitelisted host-clock module besides the cell farm).
* :mod:`repro.obs.store` — per-cell result collection from the cell
  farm (the benchmark in ``perfbench/`` reads figures through it).
* :mod:`repro.obs.windows` — streaming tumbling/sliding windows of
  per-tenant metrics over the live trace stream (shares, engaged time,
  throughput, nearest-rank latency quantiles, per-window Jain index).
* :mod:`repro.obs.slo` — declarative SLO rules evaluated at window
  close (starvation, fairness floor, tail latency, overuse budget).
* :mod:`repro.obs.monitor` — glue + the ``repro monitor`` subcommand
  (NOT imported here: it is imported by the experiments layer, which
  the core schedulers must never transitively reach).
* :mod:`repro.obs.cli` — the ``repro trace`` subcommand.
* :mod:`repro.obs.why` — the ``repro why`` subcommand.

Nothing here imports :mod:`repro.gpu` or :mod:`repro.osmodel`: analyses
operate on recorded traces and snapshots, never on live ground truth.
"""

from repro.obs.engagement import EngagementLedger
from repro.obs.events import EVENT_KINDS, EventKindSpec, registered_kinds
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.slo import SloEngine, SloRule
from repro.obs.store import RunCollector, collecting
from repro.obs.windows import WindowAggregator, WindowConfig

__all__ = [
    "WindowAggregator",
    "WindowConfig",
    "SloEngine",
    "SloRule",
    "EVENT_KINDS",
    "EventKindSpec",
    "registered_kinds",
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "EngagementLedger",
    "RunCollector",
    "collecting",
]
