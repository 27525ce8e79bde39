"""The fleet CLI: ``repro fleet run|chaos|policies|placements``.

``repro fleet run --devices N --tenants M`` runs one fleet scenario per
seed on the experiment farm (``--workers``) and prints a deterministic
per-device rollup plus fleet-level summary.
``--window-us`` attaches the streaming monitor rig to every run
(windowed tables on stderr, stdout unchanged); ``--slo-jain-floor``
installs a ``fairness_floor`` SLO rule over the windowed per-tenant
shares, and ``--fail-on-violation`` turns any violation into exit
code 1 — that combination is the CI smoke job's fleet-level Jain gate.

``repro fleet chaos`` sweeps device-loss fault plans across the
placement policies and asserts the fleet protection invariants (lost
tenants migrate or escalate; bystanders are never killed or starved).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

from repro.cli import comma_list, positive
from repro.experiments.cells import CellSpec
from repro.experiments.parallel import (
    CellTiming,
    format_cell_timings,
    run_cells,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.registry import FLEET_DEVICE_LOSS
from repro.fleet.experiment import (
    check_fleet_invariants,
    device_loss_plan,
    format_fleet_table,
    summarize_fleet,
    tenant_specs,
)
from repro.fleet.placement import placement_registry
from repro.fleet.policies import global_policy_registry

DEFAULT_DURATION_US = 200_000.0


def _parse_losses(
    entries: Sequence[str], duration_us: float
) -> Optional[FaultPlan]:
    """``--lose-device D[@MS]`` entries into one fault plan."""
    if not entries:
        return None
    specs = []
    names = []
    for entry in entries:
        device_part, _, at_part = entry.partition("@")
        device = int(device_part)
        at_us = float(at_part) * 1000.0 if at_part else duration_us / 2
        specs.append(
            FaultSpec(
                FLEET_DEVICE_LOSS,
                start_us=at_us,
                count=1,
                target_task=f"device{device}",
            )
        )
        names.append(f"d{device}")
    return FaultPlan(name="lose-" + "+".join(names), specs=tuple(specs))


def _parse_moves(entries: Sequence[str]) -> Tuple[Tuple[float, str, int], ...]:
    """``--migrate TENANT@MS:DST`` entries into run_workloads move tuples."""
    moves = []
    for entry in entries:
        tenant, _, rest = entry.partition("@")
        at_part, _, dst_part = rest.partition(":")
        if not tenant or not at_part or not dst_part:
            raise SystemExit(
                f"bad --migrate {entry!r}; expected TENANT@MS:DST"
            )
        moves.append((float(at_part) * 1000.0, tenant, int(dst_part)))
    return tuple(moves)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Multi-GPU fleet scenarios: placement, migration, "
        "and hierarchical fairness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one fleet scenario per seed")
    run.add_argument("--devices", type=positive(int), default=1)
    run.add_argument("--tenants", type=positive(int), default=4)
    run.add_argument("--scheduler", default="dfq")
    run.add_argument(
        "--placement", default="least-loaded",
        choices=sorted(placement_registry),
    )
    run.add_argument(
        "--policy", default="fleet-fair",
        choices=sorted(global_policy_registry),
    )
    run.add_argument("--request-us", type=float, default=800.0)
    run.add_argument("--sleep-ratio", type=float, default=0.0)
    run.add_argument("--jitter", type=float, default=0.0)
    run.add_argument(
        "--partitions", type=int, default=1,
        help="tenant name partitions (p0., p1., ...) for affinity/quotas",
    )
    run.add_argument("--duration-ms", type=positive(float), default=None)
    run.add_argument("--warmup-ms", type=float, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seeds", type=comma_list(int), default=None,
        help="comma-separated seed list (overrides --seed)",
    )
    run.add_argument(
        "--migrate", action="append", default=[], metavar="TENANT@MS:DST",
        help="request a planned migration (commits at the source's next "
        "engagement boundary); repeatable",
    )
    run.add_argument(
        "--lose-device", action="append", default=[], metavar="D[@MS]",
        help="inject fleet.device_loss for device D at MS milliseconds "
        "(default: mid-run); repeatable",
    )
    run.add_argument("--workers", type=int, default=1)
    run.add_argument(
        "--window-us", type=float, default=None,
        help="attach the streaming monitor rig with this window width",
    )
    run.add_argument(
        "--slo-jain-floor", type=float, default=None,
        help="install a fairness_floor SLO rule at this Jain threshold "
        "(needs --window-us)",
    )
    run.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit 1 if any monitored SLO rule fired or any fleet "
        "invariant is violated",
    )
    run.add_argument(
        "--quiet", action="store_true",
        help="suppress per-window lines (summary only)",
    )
    run.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="export the monitored trace stream (device-tagged records "
        "across all seeds) as JSONL for 'repro why' / span analysis; "
        "implies the monitor rig",
    )

    chaos = sub.add_parser(
        "chaos", help="device-loss matrix across placement policies"
    )
    chaos.add_argument("--devices", type=positive(int), default=3)
    chaos.add_argument("--tenants", type=positive(int), default=9)
    chaos.add_argument("--scheduler", default="dfq")
    chaos.add_argument("--policy", default="fleet-fair")
    chaos.add_argument("--request-us", type=float, default=800.0)
    chaos.add_argument("--duration-ms", type=positive(float), default=None)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--workers", type=int, default=1)

    sub.add_parser("policies", help="list global fair-share policies")
    sub.add_parser("placements", help="list placement policies")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    duration_us = (
        args.duration_ms * 1000.0
        if args.duration_ms is not None
        else DEFAULT_DURATION_US
    )
    warmup_us = (
        args.warmup_ms * 1000.0
        if args.warmup_ms is not None
        else min(duration_us / 4, 50_000.0)
    )
    if not 0.0 <= warmup_us < duration_us:
        # A warmup that covers the run leaves no rounds to measure.
        print(f"--warmup-ms must be >= 0 and below the duration "
              f"({duration_us / 1000.0:g} ms)", file=sys.stderr)
        return 2
    if args.slo_jain_floor is not None and args.window_us is None:
        print("--slo-jain-floor needs --window-us", file=sys.stderr)
        return 2
    fault_plan = _parse_losses(args.lose_device, duration_us)
    moves = _parse_moves(args.migrate)
    seeds = args.seeds or [args.seed]
    workloads = tenant_specs(
        args.tenants,
        request_size_us=args.request_us,
        sleep_ratio=args.sleep_ratio,
        jitter_sigma=args.jitter,
        partitions=args.partitions,
    )
    specs = [
        CellSpec(
            devices=args.devices,
            scheduler=args.scheduler,
            workloads=workloads,
            duration_us=duration_us,
            warmup_us=warmup_us,
            seed=seed,
            placement=args.placement,
            policy=args.policy,
            fault_plan=fault_plan,
            moves=moves,
        )
        for seed in seeds
    ]

    session = None
    stack = None
    if args.window_us is not None or args.trace_out is not None:
        from contextlib import ExitStack

        from repro.obs.monitor import DEFAULT_WINDOW_US, MonitorSession, monitoring
        from repro.obs.slo import SloRule
        from repro.obs.windows import WindowConfig
        from repro.sim.trace import TraceRecorder

        rules = ()
        if args.slo_jain_floor is not None:
            rules = (
                SloRule(
                    "fleet-jain-floor", "fairness_floor",
                    args.slo_jain_floor,
                ),
            )
        session = MonitorSession(
            WindowConfig(
                window_us=(
                    args.window_us if args.window_us is not None
                    else DEFAULT_WINDOW_US
                )
            ),
            rules,
            line_sink=lambda line: print(line, file=sys.stderr),
            # --trace-out alone taps the stream without window chatter.
            render_windows=not args.quiet and args.window_us is not None,
            record_stream=(
                TraceRecorder() if args.trace_out is not None else None
            ),
        )
        stack = ExitStack()
        stack.enter_context(monitoring(session))

    timings: list[CellTiming] = []
    try:
        all_results = run_cells(
            specs,
            workers=1 if session is not None else args.workers,
            timings=timings,
        )
    finally:
        if stack is not None:
            stack.close()

    if args.trace_out is not None and session is not None:
        from repro.obs.export import save_trace

        count = save_trace(session.record_stream, args.trace_out)
        print(
            f"fleet run: {count} trace records written to {args.trace_out}",
            file=sys.stderr,
        )

    print(
        f"fleet run: {args.devices} device(s), {args.tenants} tenant(s), "
        f"scheduler={args.scheduler}, placement={args.placement}, "
        f"policy={args.policy}"
    )
    invariant_violations: list[str] = []
    for seed, results in zip(seeds, all_results):
        print()
        print(f"seed {seed}:")
        print(format_fleet_table(results))
        if fault_plan is not None:
            for violation in check_fleet_invariants(results):
                invariant_violations.append(f"seed {seed}: {violation}")
    for violation in invariant_violations:
        print(f"INVARIANT VIOLATION: {violation}")
    if timings:
        print(f"[fleet] {format_cell_timings(timings)}", file=sys.stderr)
    if session is not None:
        print(
            f"monitor: {session.windows_closed} windows, "
            f"{session.violations} violations, "
            f"{session.recoveries} recoveries "
            f"across {len(session.monitors)} runs",
            file=sys.stderr,
        )
    if args.fail_on_violation:
        if invariant_violations:
            return 1
        if session is not None and session.violations:
            return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    duration_us = (
        args.duration_ms * 1000.0
        if args.duration_ms is not None
        else DEFAULT_DURATION_US
    )
    warmup_us = min(duration_us / 4, 50_000.0)
    workloads = tenant_specs(
        args.tenants, request_size_us=args.request_us,
        partitions=args.devices,
    )
    scenarios: list[tuple[str, CellSpec]] = []
    for placement in sorted(placement_registry):
        scenarios.append(
            (
                placement,
                CellSpec(
                    devices=args.devices,
                    scheduler=args.scheduler,
                    workloads=workloads,
                    duration_us=duration_us,
                    warmup_us=warmup_us,
                    seed=args.seed,
                    placement=placement,
                    policy=args.policy,
                    fault_plan=device_loss_plan(0, duration_us / 2),
                ),
            )
        )
    # The no-survivor escalation case: a fleet of one loses its only
    # device; its tenants must escalate (killed, reason recorded).
    scenarios.append(
        (
            "escalation",
            CellSpec(
                devices=1,
                scheduler=args.scheduler,
                workloads=tenant_specs(2, request_size_us=args.request_us),
                duration_us=duration_us,
                warmup_us=warmup_us,
                seed=args.seed,
                placement="least-loaded",
                policy=args.policy,
                fault_plan=device_loss_plan(0, duration_us / 2),
            ),
        )
    )
    timings: list[CellTiming] = []
    all_results = run_cells(
        [spec for _, spec in scenarios],
        workers=args.workers, timings=timings,
    )
    from repro.metrics.tables import format_table

    rows = []
    failed = False
    for (label, _spec), results in zip(scenarios, all_results):
        summary = summarize_fleet(results)
        violations = check_fleet_invariants(results)
        escalated = sum(
            1
            for result in results.values()
            if result.kill_reason == "device lost"
        )
        if label == "escalation":
            # Whole-fleet loss: every tenant must escalate, none migrate.
            if summary.loss_moves:
                violations.append(
                    f"{summary.loss_moves} migration(s) with no survivor"
                )
            if escalated != summary.tenants:
                violations.append(
                    f"only {escalated}/{summary.tenants} tenants escalated"
                )
        if violations:
            failed = True
        rows.append(
            (
                label,
                summary.devices,
                summary.tenants,
                summary.devices_lost,
                summary.loss_moves,
                escalated,
                f"{summary.jain:.3f}",
                "FAIL" if violations else "ok",
            )
        )
    print(
        format_table(
            ("scenario", "devices", "tenants", "lost", "migrated",
             "escalated", "jain", "verdict"),
            rows,
            title="fleet chaos: device loss, migration-based recovery",
        )
    )
    for (label, _spec), results in zip(scenarios, all_results):
        for violation in check_fleet_invariants(results):
            print(f"INVARIANT VIOLATION [{label}]: {violation}")
    if timings:
        print(
            f"[fleet chaos] {format_cell_timings(timings)}", file=sys.stderr
        )
    return 1 if failed else 0


def cmd_policies(_args: argparse.Namespace) -> int:
    for name in sorted(global_policy_registry):
        cls = global_policy_registry[name]
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:12s} {summary}")
    return 0


def cmd_placements(_args: argparse.Namespace) -> int:
    for name in sorted(placement_registry):
        cls = placement_registry[name]
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:18s} {summary}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "policies":
        return cmd_policies(args)
    return cmd_placements(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
