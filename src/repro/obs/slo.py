"""Declarative SLO monitors evaluated at window close.

An :class:`SloRule` names one of four detector kinds over the streaming
windows of :mod:`repro.obs.windows`:

``starvation``
    A tenant showed demand (submits, faults, or denials) but completed
    nothing and was attributed at most ``threshold`` µs of device share.
``fairness_floor``
    The window's Jain index over tenant shares fell below ``threshold``
    (window-level; subject is ``""``).
``tail_latency``
    A tenant's fixed-bin latency ``quantile`` exceeded ``threshold`` µs.
``overuse_budget``
    A tenant was charged more than ``threshold`` µs of overuse in the
    window, or exceeded ``max_escalations`` watchdog escalations — the
    DrainWatchdog ladder made observable as an alert.

Rules carry hysteresis: a subject must violate for ``for_windows``
consecutive windows before a violation fires, and a single clean window
recovers it.  The :class:`SloEngine` is pure bookkeeping over
:class:`~repro.obs.windows.WindowSnapshot` values — no simulator
imports — so rules evaluate identically live or in replay.

Rules serialize to/from plain dicts (``repro monitor --slo rules.json``);
the schema is documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.obs.windows import WindowSnapshot

#: The recognized detector kinds.
RULE_KINDS = ("starvation", "fairness_floor", "tail_latency", "overuse_budget")


@dataclass(frozen=True)
class SloRule:
    """One declarative service-level objective."""

    name: str
    kind: str
    threshold: float
    #: Consecutive violating windows required before the rule fires.
    for_windows: int = 1
    #: Latency quantile checked by ``tail_latency`` rules.
    quantile: float = 0.99
    #: Escalation budget for ``overuse_budget`` rules (None: only the
    #: overuse-µs threshold applies).
    max_escalations: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO rule needs a name")
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; expected one of {RULE_KINDS}"
            )
        if self.for_windows < 1:
            raise ValueError("for_windows must be >= 1")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "for_windows": self.for_windows,
        }
        if self.kind == "tail_latency":
            out["quantile"] = self.quantile
        if self.max_escalations is not None:
            out["max_escalations"] = self.max_escalations
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SloRule":
        known = {"name", "kind", "threshold", "for_windows", "quantile",
                 "max_escalations"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown SLO rule fields: {sorted(extra)}")
        kwargs = {key: data[key] for key in sorted(known) if key in data}
        return cls(**kwargs)


def load_rules(path: Path) -> list[SloRule]:
    """Read rules from a JSON file: a list, or ``{"rules": [...]}``."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict):
        data = data.get("rules", [])
    if not isinstance(data, list):
        raise ValueError("SLO file must hold a list of rules")
    return [SloRule.from_dict(entry) for entry in data]


@dataclass(frozen=True)
class SloEvent:
    """One state transition: a rule fired or recovered for a subject."""

    event: str  # "violation" | "recovered"
    rule: str
    slo_kind: str
    #: Tenant the rule fired for; "" for window-level rules.
    task: str
    window: int
    end_us: float
    value: float
    threshold: float
    #: Consecutive violating windows at transition time.
    violated_windows: int

    def to_dict(self) -> dict:
        return {
            "event": self.event,
            "rule": self.rule,
            "slo_kind": self.slo_kind,
            "task": self.task,
            "window": self.window,
            "end_us": self.end_us,
            "value": self.value,
            "threshold": self.threshold,
            "violated_windows": self.violated_windows,
        }


@dataclass
class _SubjectState:
    streak: int = 0
    active: bool = False
    last_value: float = 0.0


class SloEngine:
    """Evaluates a rule set against each closed window, with hysteresis."""

    def __init__(self, rules: Iterable[SloRule]) -> None:
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(names) != len(set(names)):
            raise ValueError("SLO rule names must be unique")
        self._state: dict[tuple[str, str], _SubjectState] = {}
        self.violations = 0
        self.recoveries = 0

    @property
    def active_violations(self) -> list[tuple[str, str]]:
        """(rule, task) pairs currently in the violated state, sorted."""
        return sorted(
            key for key, state in self._state.items() if state.active
        )

    def observe(self, snapshot: WindowSnapshot) -> list[SloEvent]:
        """Evaluate every rule against one closed window; returns the
        state transitions (violations fired / recoveries) in rule order."""
        events: list[SloEvent] = []
        for rule in self.rules:
            offenders = self._evaluate(rule, snapshot)
            seen = set(offenders)
            for task in sorted(offenders):
                state = self._state.setdefault(
                    (rule.name, task), _SubjectState()
                )
                state.streak += 1
                state.last_value = offenders[task]
                if state.streak >= rule.for_windows and not state.active:
                    state.active = True
                    self.violations += 1
                    events.append(SloEvent(
                        "violation", rule.name, rule.kind, task,
                        snapshot.index, snapshot.end_us,
                        offenders[task], rule.threshold, state.streak,
                    ))
            for (rule_name, task), state in self._state.items():
                if rule_name != rule.name or task in seen:
                    continue
                if state.active:
                    state.active = False
                    self.recoveries += 1
                    events.append(SloEvent(
                        "recovered", rule.name, rule.kind, task,
                        snapshot.index, snapshot.end_us,
                        state.last_value, rule.threshold, state.streak,
                    ))
                state.streak = 0
        return events

    # -- detectors -----------------------------------------------------
    def _evaluate(
        self, rule: SloRule, snapshot: WindowSnapshot
    ) -> dict[str, float]:
        """Subjects violating ``rule`` in this window, with the measured
        value; window-level rules use subject ``""``."""
        if rule.kind == "fairness_floor":
            if not math.isnan(snapshot.jain) and snapshot.jain < rule.threshold:
                return {"": snapshot.jain}
            return {}
        offenders: dict[str, float] = {}
        for task, stats in snapshot.tenants.items():
            if rule.kind == "starvation":
                demand = stats.submits + stats.faults + stats.denials
                if (demand > 0 and stats.completions == 0
                        and stats.share_usage_us <= rule.threshold):
                    offenders[task] = stats.share_usage_us
            elif rule.kind == "tail_latency":
                value = stats.latency_quantile(
                    rule.quantile, snapshot.latency_bin_us
                )
                if value is not None and value > rule.threshold:
                    offenders[task] = value
            elif rule.kind == "overuse_budget":
                if stats.overuse_us > rule.threshold:
                    offenders[task] = stats.overuse_us
                elif (rule.max_escalations is not None
                        and stats.escalations > rule.max_escalations):
                    offenders[task] = float(stats.escalations)
        return offenders
