"""The project contract neonlint checks against.

:class:`Config`'s defaults encode the repo's own layout: which modules sit
behind the interception boundary, which attributes are ground truth, who
may own randomness or read the wall clock.  They are code, not a file a
checkout can override; tests build variants with keyword arguments, e.g.
``Config(rng_modules=("rng",))``.

An audited exception is granted on the flagged line itself, with an
inline pragma naming the rule and the reason::

    cumulative = device.task_usage(task)  # neonlint: allow[NEON102] vendor-statistics ablation

The pragma is the only way to excuse a finding.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

#: Channel/device attributes that constitute ground truth: queue contents,
#: in-flight request state, engine internals, and the vendor usage
#: accounting.  Reference to any of these from a boundary module means the
#: scheduler is peeking past the interception layer.
DEFAULT_GROUND_TRUTH_ATTRIBUTES = frozenset(
    {
        # Channel internals (repro.gpu.channel.Channel)
        "queue",
        "running",
        "register_page",
        "masked",
        "refcounter",
        "last_submitted_ref",
        "submitted_count",
        "completed_count",
        "kind",
        # Request ground truth (repro.gpu.request.Request)
        "size_us",
        "remaining_us",
        "never_completes",
        # Device/engine internals (repro.gpu.device, repro.gpu.engine)
        "device",
        "engines",
        "main_engine",
        "current_channel",
        "task_usage",
        # Task-side device handles (repro.osmodel.task.Task)
        "contexts",
    }
)


@dataclasses.dataclass(frozen=True)
class Config:
    """Everything the checkers need to know about the project layout."""

    #: Module prefixes the boundary rules apply to.  The fleet's global
    #: policy layer lives on the same side of the interception boundary
    #: as the local schedulers: it may consume only per-device digests
    #: accumulated from trace events, never GPU/kernel ground truth.
    boundary_modules: tuple[str, ...] = ("repro.core", "repro.fleet.policies")
    #: Module prefixes boundary modules may not import at runtime.
    internal_import_prefixes: tuple[str, ...] = ("repro.gpu", "repro.osmodel")
    #: Attribute names treated as ground-truth dereferences (NEON102).
    ground_truth_attributes: frozenset[str] = DEFAULT_GROUND_TRUTH_ATTRIBUTES
    #: Modules allowed to own randomness (the seeded-stream registry).
    rng_modules: tuple[str, ...] = ("repro.sim.rng",)
    #: Host-side orchestration modules allowed to read the wall clock
    #: (NEON201 exemption).  These measure *host* execution time (worker
    #: pools, the sanctioned accessor); virtual time inside simulations
    #: stays deterministic.  Everything else gets host time through
    #: ``repro.obs.clock.host_clock`` so the exemption surface stays
    #: these two audited modules.
    host_clock_modules: tuple[str, ...] = (
        "repro.experiments.parallel",
        "repro.obs.clock",
    )
    #: Generator names for calls the model cannot resolve (NEON301/302).
    generator_methods: tuple[str, ...] = ("drain", "scan_channel")
    #: Bulk engagement methods whose flip count must be charged (NEON303).
    flip_methods: tuple[str, ...] = ("engage_all", "engage_task", "disengage_task")
    #: Module prefixes NEON501 paths may legitimately pass through: the
    #: sanctioned observation/substrate layers.  A call chain from a
    #: boundary module is *not* followed into these — the interception
    #: layer touches device internals by design, on the scheduler's
    #: behalf, charging the paper's costs.
    sanctioned_modules: tuple[str, ...] = (
        "repro.neon",
        "repro.obs",
        "repro.sim",
    )
    #: Module prefixes whose RNG use is policed by NEON502: these may
    #: only *receive* streams (constructor/function parameters fed from
    #: the seeded registries), never construct generators themselves.
    rng_client_modules: tuple[str, ...] = ("repro.core", "repro.workloads")
    #: Fully qualified constructors that create a raw RNG stream.
    rng_constructors: tuple[str, ...] = (
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
    )
    #: Module prefixes NEON503 applies to (the policy/scheduler layer,
    #: local and fleet-global alike).
    observation_client_modules: tuple[str, ...] = (
        "repro.core",
        "repro.fleet.policies",
    )
    #: The declarative interception-observable surface: the only
    #: attributes observation clients may touch on the interception
    #: manager (receivers named ``neon``).  This is the enforcement hook
    #: the ROADMAP's pluggable policy layer builds on: a policy is safe
    #: exactly when every ``neon.*`` access resolves into this list.
    #: tests/staticcheck/test_wholeprogram_rules.py pins it to the
    #: public API of repro.neon.interception.InterceptionManager.
    observation_api: frozenset[str] = frozenset(
        {
            "track",
            "untrack",
            "release_task",
            "live_channels",
            "channels_of",
            "observation",
            "engage_channel",
            "disengage_channel",
            "engage_task",
            "disengage_task",
            "engage_all",
            "flip_cost",
            "mask_channel",
            "unmask_channel",
            "scan_channel",
            "drain",
            "preemption_available",
            "preempt_task",
            "mask_task",
            "unmask_task",
            "identify_running_task",
            "mark_engagement",
            "task_quiet",
            "record_sampled_service",
            "estimated_request_size",
        }
    )

    def is_boundary_module(self, module: str) -> bool:
        return _has_prefix(module, self.boundary_modules)

    def is_internal_import(self, module: str) -> bool:
        return _has_prefix(module, self.internal_import_prefixes)

    def is_rng_module(self, module: str) -> bool:
        return _has_prefix(module, self.rng_modules)

    def is_host_clock_module(self, module: str) -> bool:
        return _has_prefix(module, self.host_clock_modules)

    def is_sanctioned_module(self, module: str) -> bool:
        return _has_prefix(module, self.sanctioned_modules)

    def is_rng_client_module(self, module: str) -> bool:
        return _has_prefix(module, self.rng_client_modules)

    def is_observation_client_module(self, module: str) -> bool:
        return _has_prefix(module, self.observation_client_modules)


def _has_prefix(module: str, prefixes: Iterable[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )
