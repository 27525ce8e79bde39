"""The typed trace event-kind registry.

Every trace event the system emits has a *kind* registered here, with
the layer that owns it and the payload fields it carries.  Emit sites
reference the module-level constants (``events.FAULT``, never the string
``"fault"``); neonlint rule NEON401 rejects literal kinds and NEON402
rejects constants this registry does not know, so the taxonomy below is
the single source of truth for what a trace can contain.

The registry is deliberately flat and import-free: analysis tooling
(:mod:`repro.obs.summary`, :mod:`repro.obs.export`) and the static
analyzer both read it without touching the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventKindSpec:
    """One registered trace event kind."""

    kind: str
    #: Layer that emits it: "gpu", "kernel", "neon", "scheduler",
    #: "faults" (the injection/watchdog subsystem, repro.faults),
    #: "obs" (the streaming monitor, repro.obs.windows / repro.obs.slo),
    #: or "fleet" (the multi-device registry, repro.fleet).
    layer: str
    description: str
    #: Payload field names the emit sites provide (documentation +
    #: registry-completeness tests; extra fields are allowed).
    payload: tuple[str, ...] = ()


#: kind string -> spec.  Populated by :func:`register_event_kind`.
EVENT_KINDS: dict[str, EventKindSpec] = {}


def register_event_kind(
    kind: str, layer: str, description: str, payload: tuple[str, ...] = ()
) -> str:
    """Register a kind; returns the kind string (assign it to a constant)."""
    if kind in EVENT_KINDS:
        raise ValueError(f"event kind {kind!r} registered twice")
    if layer not in (
        "gpu", "kernel", "neon", "scheduler", "faults", "obs", "fleet"
    ):
        raise ValueError(f"unknown layer {layer!r} for event kind {kind!r}")
    EVENT_KINDS[kind] = EventKindSpec(kind, layer, description, payload)
    return kind


def registered_kinds() -> tuple[str, ...]:
    """All registered kind strings, sorted."""
    return tuple(sorted(EVENT_KINDS))


def constant_names() -> frozenset[str]:
    """Names of the module-level constants holding registered kinds.

    This is what neonlint's NEON402 checks emit-site identifiers
    against: ``trace.emit(now, src, FAULT, ...)`` passes because
    ``FAULT`` is listed here; a constant defined elsewhere does not.
    """
    module = globals()
    return frozenset(
        name
        for name, value in module.items()
        if name.isupper()
        and isinstance(value, str)
        and value in EVENT_KINDS
    )


# ----------------------------------------------------------------------
# GPU layer (repro.gpu.device / repro.gpu.engine)
# ----------------------------------------------------------------------
REQUEST_SUBMIT = register_event_kind(
    "request_submit", "gpu",
    "a request's doorbell write reached the device and was enqueued",
    ("task", "channel", "ref", "size_us", "request_kind"),
)
REQUEST_COMPLETE = register_event_kind(
    "request_complete", "gpu",
    "the engine retired a request normally; begin_us is the start of "
    "its last execution segment when no exec.begin announced it",
    ("task", "channel", "ref", "service_us", "latency_us", "begin_us"),
)
REQUEST_ABORTED = register_event_kind(
    "request_aborted", "gpu",
    "the engine aborted a running request (context kill)",
    ("task", "channel", "ref", "service_us"),
)
REQUEST_PREEMPTED = register_event_kind(
    "request_preempted", "gpu",
    "hardware preemption saved a request's state mid-execution (§6.2)",
    ("task", "channel", "ref", "remaining_us"),
)
CONTEXT_KILLED = register_event_kind(
    "context_killed", "gpu",
    "a device context was torn down by the driver's exit protocol",
    ("task",),
)
EXEC_BEGIN = register_event_kind(
    "exec.begin", "gpu",
    "the engine started (or resumed) executing a request segment whose "
    "request_complete cannot carry its start (begin_us): dated at the "
    "segment's start, emitted at an abort or preemption, at a retirement "
    "whose counter write stalls, or at the start while such a write is "
    "pending or when the segment cannot complete before the run stops",
    ("task", "channel", "ref"),
)

# ----------------------------------------------------------------------
# Kernel layer (repro.osmodel.kernel)
# ----------------------------------------------------------------------
FAULT = register_event_kind(
    "fault", "kernel",
    "a store to a protected channel register trapped into the kernel",
    ("task", "channel", "ref"),
)
TASK_EXIT = register_event_kind(
    "task_exit", "kernel",
    "a task exited normally and released its device resources",
    ("task",),
)
TASK_KILLED = register_event_kind(
    "task_killed", "kernel",
    "the kernel killed a task (runaway protection, §3.1)",
    ("task", "reason"),
)
SCHED_WAIT_BEGIN = register_event_kind(
    "sched.wait_begin", "kernel",
    "the fault handler blocked a faulting task on the scheduler's "
    "verdict (disengaged denial wait, fair-queue token wait)",
    ("task", "channel"),
)
SCHED_WAIT_END = register_event_kind(
    "sched.wait_end", "kernel",
    "the scheduler released a blocked task; the handler resumes the "
    "single-stepped store",
    ("task", "channel", "waited_us"),
)

# ----------------------------------------------------------------------
# Interception layer (repro.neon)
# ----------------------------------------------------------------------
CHANNEL_ENGAGED = register_event_kind(
    "channel_engaged", "neon",
    "a channel register page was protected (interception / re-engagement)",
    ("task", "channel"),
)
CHANNEL_DISENGAGED = register_event_kind(
    "channel_disengaged", "neon",
    "a channel register page was unprotected (direct access granted)",
    ("task", "channel"),
)
DRAIN_STALL = register_event_kind(
    "drain_stall", "neon",
    "a drain finished or timed out; waited_us is the stall it cost",
    ("waited_us", "drained", "channels", "offenders"),
)

# ----------------------------------------------------------------------
# Scheduler layer (repro.core)
# ----------------------------------------------------------------------
BARRIER_BEGIN = register_event_kind(
    "barrier_begin", "scheduler",
    "an engagement episode began: protect every register page (Figure 3)",
    ("episode",),
)
BARRIER_END = register_event_kind(
    "barrier_end", "scheduler",
    "the submission barrier is up: all pages protected, flips charged",
    ("episode", "flips"),
)
SAMPLE_WINDOW_BEGIN = register_event_kind(
    "sample_window_begin", "scheduler",
    "a task's exclusive sampling window opened (§3.3 software statistics)",
    ("task", "target_requests"),
)
SAMPLE_WINDOW_END = register_event_kind(
    "sample_window_end", "scheduler",
    "a sampling window closed (including its post-window drain)",
    ("task", "observed", "usage_us"),
)
VT_UPDATE = register_event_kind(
    "vt_update", "scheduler",
    "a task's virtual time advanced at an engagement episode",
    ("task", "usage_us", "vt", "system_vt"),
)
DENIAL = register_event_kind(
    "denial", "scheduler",
    "a task was denied device access for the upcoming interval",
    ("task", "lag_us"),
)
FREERUN_START = register_event_kind(
    "freerun_start", "scheduler",
    "a disengaged free-run period began for the admitted tasks",
    ("allowed", "denied", "freerun_us"),
)
TOKEN_PASS = register_event_kind(
    "token_pass", "scheduler",
    "the timeslice token passed to a task (its slice begins)",
    ("task", "slice"),
)
OVERUSE_CHARGE = register_event_kind(
    "overuse_charge", "scheduler",
    "excess execution past a slice boundary was charged to the holder",
    ("task", "excess_us"),
)
REQUEST_RELEASED = register_event_kind(
    "request_released", "scheduler",
    "a per-request scheduler released a held request for dispatch",
    ("task",),
)
SHARE_SAMPLE = register_event_kind(
    "share_sample", "scheduler",
    "per-tenant device usage attributed over a scheduling interval "
    "(episode settlement or slice end); feeds the streaming windows",
    ("task", "usage_us", "interval_us"),
)

# ----------------------------------------------------------------------
# Fault-injection / watchdog layer (repro.faults, repro.core.hardening)
# ----------------------------------------------------------------------
FAULT_INJECTED = register_event_kind(
    "fault_injected", "faults",
    "the injector fired a fault spec at a registered injection point",
    ("point",),
)
FAULT_DETECTED = register_event_kind(
    "fault_detected", "faults",
    "the drain watchdog observed a stuck drain it attributes to a task",
    ("task", "waited_us"),
)
WATCHDOG_RETRY = register_event_kind(
    "watchdog_retry", "faults",
    "the watchdog re-drained with a backed-off timeout before acting; "
    "tasks lists the suspects so stall windows attribute per tenant",
    ("attempt", "timeout_us", "tasks"),
)
FAULT_RECOVERED = register_event_kind(
    "fault_recovered", "faults",
    "a detected fault resolved without a kill (retry or degrade action)",
    ("task", "action"),
)
FAULT_ESCALATED = register_event_kind(
    "fault_escalated", "faults",
    "watchdog retries were exhausted (or a runaway attributed): task killed",
    ("task", "reason"),
)

# ----------------------------------------------------------------------
# Streaming-observability layer (repro.obs.windows / repro.obs.slo).
# In fleet runs the monitor stamps an explicit ``device`` payload field
# onto slo.violation/slo.recovered (parsed from the ``name@dN`` tenant
# key) and a ``devices`` list onto window.close, so span/window joins
# never infer devices positionally.  Single-device runs carry neither
# field — their traces stay byte-identical.
# ----------------------------------------------------------------------
WINDOW_CLOSE = register_event_kind(
    "window.close", "obs",
    "a metrics window closed: per-tenant aggregates and Jain's index",
    ("window", "start_us", "end_us", "tenants", "jain"),
)
SLO_VIOLATION = register_event_kind(
    "slo.violation", "obs",
    "an SLO rule entered the violated state at a window close",
    ("rule", "slo_kind", "task", "window", "value", "threshold"),
)
SLO_RECOVERED = register_event_kind(
    "slo.recovered", "obs",
    "a previously violated SLO rule cleared at a window close",
    ("rule", "slo_kind", "task", "window", "violated_windows"),
)

# ----------------------------------------------------------------------
# Fleet layer (repro.fleet: multi-device registry, placement, migration,
# global fair share).  In multi-device runs every event above also
# carries an optional ``device`` payload field (default 0), injected by
# the per-device trace view; single-device runs never add it, so their
# traces are byte-identical with the fleet subsystem merged.
# ----------------------------------------------------------------------
FLEET_PLACE = register_event_kind(
    "fleet.place", "fleet",
    "the placement policy assigned a tenant to a device",
    ("task", "policy"),
)
FLEET_MIGRATE_BEGIN = register_event_kind(
    "fleet.migrate_begin", "fleet",
    "a migration committed at the source device's engagement boundary: "
    "the tenant is parked, drained, and about to be torn down",
    ("task", "src", "dst", "reason"),
)
FLEET_MIGRATE_END = register_event_kind(
    "fleet.migrate_end", "fleet",
    "a migration finished: contexts re-created on the target device and "
    "the charged migration cost landed on the source",
    ("task", "src", "dst", "reason", "cost_us"),
)
FLEET_DEVICE_LOST = register_event_kind(
    "fleet.device_lost", "fleet",
    "a device dropped off the fleet (fleet.device_loss fault): every "
    "tenant on it must migrate to a survivor or be escalated",
    ("tenants",),
)
FLEET_WEIGHT_UPDATE = register_event_kind(
    "fleet.weight_update", "fleet",
    "the global fair-share layer re-weighted a device's local scheduler "
    "at an engagement tick",
    ("policy", "weights"),
)
