"""The paper's claims as structured, checkable data, each with its measurement.

Each :class:`PaperClaim` captures one quantitative statement with an
acceptance band for the reproduction.  Bands are generous where DESIGN.md
documents a structural deviation, and tight where the claim is the
paper's headline.  Beside each claim sits the measurement that scores it:
a driver run at a fixed scale (``run``) and the value read off its result
(``score``).  The scale is part of the claim; the bands were checked at
it.  `measure` runs the measurements, `shape_report` renders the
scoreboard, and ``repro claims`` does both for every claim in `PAPER`.

Drivers are imported inside the measurements, so importing this module
loads no experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

INF = math.inf


@dataclass(frozen=True)
class PaperClaim:
    """One quantitative claim, and the measurement that scores it."""

    key: str
    section: str
    statement: str
    #: The paper's own number; None where it states only a direction.
    paper_value: Optional[float]
    #: Acceptance band for the reproduction, inclusive.
    low: float
    high: float
    #: ``run(seed, farm)``: the driver run, with ``farm`` the cell-farm
    #: keywords (workers, cache) that farm drivers accept.
    run: Callable[[int, dict], Any]
    #: The claim's value from ``run``'s result.
    score: Callable[[Any], float]
    unit: str = "x"

    def accepts(self, measured: float) -> bool:
        return self.low <= measured <= self.high


# -- measurements: one driver call each, at the claim's fixed scale -------


def _table1(seed: int, farm: dict):
    from repro.experiments import table1

    return table1.run(duration_us=150_000.0, warmup_us=25_000.0, seed=seed,
                      **farm)


def _figure2(seed: int, farm: dict):
    from repro.experiments import figure2

    return figure2.run(duration_us=150_000.0, warmup_us=20_000.0, seed=seed)


def _section3(seed: int, farm: dict):
    from repro.experiments import section3_throughput

    return section3_throughput.run(duration_us=80_000.0, seed=seed, **farm)


_FIGURE4_APPS = (
    "BinarySearch", "BitonicSort", "DCT", "FFT", "FloydWarshall",
    "MatrixMulDouble", "PrefixSum", "glxgears", "oclParticles",
    "simpleTexture3D",
)


def _figure4(seed: int, farm: dict):
    from repro.experiments import figure4

    return figure4.run(duration_us=200_000.0, warmup_us=40_000.0, seed=seed,
                       apps=_FIGURE4_APPS, **farm)


def _figure5(seed: int, farm: dict):
    from repro.experiments import figure5

    return figure5.run(duration_us=150_000.0, warmup_us=25_000.0, seed=seed,
                       **farm)


_PAIR_SIZES_US = (19.0, 303.0, 1700.0)


def _figure6(seed: int, farm: dict):
    from repro.experiments import figure6

    return figure6.run(duration_us=300_000.0, warmup_us=60_000.0, seed=seed,
                       sizes=_PAIR_SIZES_US, **farm)


def _figure7(seed: int, farm: dict):
    from repro.experiments import figure7

    _, summaries = figure7.run(duration_us=300_000.0, warmup_us=60_000.0,
                               seed=seed, sizes=_PAIR_SIZES_US, **farm)
    return summaries


def _figure8(seed: int, farm: dict):
    from repro.experiments import figure8

    return figure8.run(duration_us=400_000.0, warmup_us=80_000.0, seed=seed,
                       **farm)


_SLEEP_RATIOS = (0.0, 0.4, 0.8)


def _figure9(seed: int, farm: dict):
    from repro.experiments import figure9

    return figure9.run(duration_us=300_000.0, warmup_us=60_000.0, seed=seed,
                       ratios=_SLEEP_RATIOS, **farm)


def _figure10(seed: int, farm: dict):
    from repro.experiments import figure10

    return figure10.run(duration_us=300_000.0, warmup_us=60_000.0, seed=seed,
                        ratios=_SLEEP_RATIOS, **farm)


def _infinite_loop(seed: int, farm: dict):
    from repro.experiments import protection

    return protection.run_infinite_loop(duration_us=250_000.0, seed=seed,
                                        **farm)


def _greedy_batcher(seed: int, farm: dict):
    from repro.experiments import protection

    return protection.run_greedy_batcher(duration_us=250_000.0,
                                         warmup_us=50_000.0, seed=seed, **farm)


def _section6(seed: int, farm: dict):
    from repro.experiments import section6_dos

    return section6_dos.run(duration_us=50_000.0, seed=seed)


def _hw_stats(seed: int, farm: dict):
    from repro.experiments import ablations

    return ablations.run_hw_stats(duration_us=350_000.0, warmup_us=70_000.0,
                                  seed=seed, **farm)


def _freerun(seed: int, farm: dict):
    from repro.experiments import ablations

    return ablations.run_freerun_multiplier(duration_us=300_000.0,
                                            warmup_us=60_000.0, seed=seed,
                                            **farm)


def _baselines(seed: int, farm: dict):
    from repro.experiments import ablations

    return ablations.run_baseline_schedulers(duration_us=250_000.0,
                                             warmup_us=50_000.0, seed=seed,
                                             **farm)


def _containment(seed: int, farm: dict):
    from repro.experiments import preemption

    return preemption.run_containment(duration_us=300_000.0,
                                      warmup_us=60_000.0, seed=seed, **farm)


def _costs(seed: int, farm: dict):
    from repro.osmodel.costs import CPU_GHZ, CostParams

    return CostParams().direct_submit_us * CPU_GHZ * 1000.0


# -- scoring helpers ------------------------------------------------------

_MANAGED = ("timeslice", "disengaged-timeslice", "dfq")
_COMPUTE_APPS = ("DCT", "FFT")


def _one(items, **fields):
    """The one item whose attributes equal ``fields``."""
    (item,) = [item for item in items
               if all(getattr(item, name) == value
                      for name, value in fields.items())]
    return item


def _named(items) -> dict:
    return {item.scheduler: item for item in items}


def _max_slowdown(rows, scheduler: str) -> float:
    return max(row.slowdowns[scheduler] for row in rows)


def _fair_pair_slowdown(outcomes) -> float:
    """Worst slowdown of a compute pair under the paper's schedulers.

    Both sides count under the two timeslice schedulers; under DFQ only
    the app side does, as DFQ's Throttle side has its own, looser claim.
    """
    return max(
        max(o.app_slowdown, o.throttle_slowdown)
        if o.scheduler != "dfq" else o.app_slowdown
        for o in outcomes
        if o.scheduler in _MANAGED and o.app in _COMPUTE_APPS
    )


def _gears_disparity(outcomes) -> float:
    gears = _one(outcomes, scheduler="dfq", app="glxgears",
                 throttle_size_us=19.0)
    return gears.app_slowdown / gears.throttle_slowdown


def _share(outcomes, field: str) -> float:
    """Share of ``outcomes`` for which boolean ``field`` holds: 1.0 for
    all, 0.0 for none, anything between a split verdict."""
    return sum(getattr(o, field) for o in outcomes) / len(outcomes)


def _baseline_overhead_margin(outcomes) -> float:
    by_name = _named(outcomes)
    others = min(by_name[name].app_standalone_overhead
                 for name in ("engaged-fq", "drr", "credit"))
    return by_name["dfq"].app_standalone_overhead - others


def _freerun_gain(outcomes) -> float:
    overheads = {o.multiplier: o.standalone_overhead for o in outcomes}
    return overheads[10.0] - overheads[2.0]


#: Every claim the reproduction is held to, keyed by name; ``repro claims``
#: scores them all.
PAPER: dict[str, PaperClaim] = {
    claim.key: claim
    for claim in [
        PaperClaim(
            key="table1_apps",
            section="5",
            statement="Table 1 lists 18 applications",
            paper_value=18.0, low=18.0, high=18.0, unit="apps",
            run=_table1, score=len,
        ),
        PaperClaim(
            key="table1_max_round_error",
            section="5",
            statement="every modeled round time is within 25% of Table 1",
            paper_value=0.0, low=0.0, high=0.25, unit="fraction",
            run=_table1,
            score=lambda rows: max(abs(row.round_error) for row in rows),
        ),
        PaperClaim(
            key="fig2_min_short_fraction",
            section="2",
            statement="a large share of requests are short (< 16 us)",
            paper_value=0.5, low=0.4, high=1.0, unit="fraction",
            run=_figure2,
            score=lambda series: min(s.short_request_fraction for s in series),
        ),
        PaperClaim(
            key="fig2_max_median_interarrival",
            section="2",
            statement="requests are submitted in short intervals",
            paper_value=None, low=0.0, high=2000.0, unit="us",
            run=_figure2,
            score=lambda series: max(s.interarrival.quantile(0.5)
                                     for s in series),
        ),
        PaperClaim(
            key="direct_submit_cycles",
            section="3",
            statement="direct doorbell write costs 305 cycles",
            paper_value=305.0, low=305.0, high=305.0, unit="cycles",
            run=_costs, score=round,
        ),
        PaperClaim(
            key="section3_trap_gain_max",
            section="3",
            statement="direct access gains up to 35% over bare traps",
            paper_value=0.35, low=0.10, high=0.45, unit="fraction",
            run=_section3, score=lambda rows: rows[0].direct_vs_syscall_gain,
        ),
        PaperClaim(
            key="section3_driver_gain_max",
            section="3",
            statement="direct access gains up to 170% over traps w/ driver work",
            paper_value=1.70, low=0.80, high=2.20, unit="fraction",
            run=_section3, score=lambda rows: rows[0].direct_vs_driver_gain,
        ),
        PaperClaim(
            key="fig4_dts_max_overhead",
            section="5.2",
            statement="Disengaged Timeslice standalone overhead <= ~2%",
            paper_value=1.02, low=1.00, high=1.08,
            run=_figure4,
            score=lambda rows: _max_slowdown(rows, "disengaged-timeslice"),
        ),
        PaperClaim(
            key="fig4_dfq_max_overhead",
            section="5.2",
            statement="Disengaged Fair Queueing standalone overhead <= ~5%",
            paper_value=1.05, low=1.00, high=1.12,
            run=_figure4, score=lambda rows: _max_slowdown(rows, "dfq"),
        ),
        PaperClaim(
            key="fig4_engaged_minus_dts_min",
            section="5.2",
            statement="engaged Timeslice is never cheaper than Disengaged "
                      "Timeslice beyond noise (per app)",
            paper_value=None, low=-0.03, high=INF, unit="slowdown",
            run=_figure4,
            score=lambda rows: min(
                row.slowdowns["timeslice"]
                - row.slowdowns["disengaged-timeslice"] for row in rows
            ),
        ),
        PaperClaim(
            key="fig4_engaged_small_vs_large",
            section="5.2",
            statement="small-request apps suffer most under engaged "
                      "Timeslice (glxgears / MatrixMulDouble)",
            paper_value=None, low=1.0, high=INF,
            run=_figure4,
            score=lambda rows: (
                _one(rows, app="glxgears").slowdowns["timeslice"]
                / _one(rows, app="MatrixMulDouble").slowdowns["timeslice"]
            ),
        ),
        PaperClaim(
            key="fig5_engaged_small_slowdown",
            section="5.2",
            statement="engaged Timeslice noticeably slows small-request Throttle",
            paper_value=1.40, low=1.15, high=2.20,
            run=_figure5, score=lambda rows: rows[0].slowdowns["timeslice"],
        ),
        PaperClaim(
            key="fig5_engaged_large_slowdown",
            section="5.2",
            statement="engaged Timeslice costs little for 1.7 ms requests",
            paper_value=None, low=0.0, high=1.05,
            run=_figure5, score=lambda rows: rows[-1].slowdowns["timeslice"],
        ),
        PaperClaim(
            key="fig5_dts_max_overhead",
            section="5.2",
            statement="Disengaged Timeslice is flat across Throttle sizes",
            paper_value=1.02, low=0.0, high=1.08,
            run=_figure5,
            score=lambda rows: _max_slowdown(rows, "disengaged-timeslice"),
        ),
        PaperClaim(
            key="fig5_dfq_max_overhead",
            section="5.2",
            statement="Disengaged Fair Queueing is flat across Throttle sizes",
            paper_value=1.05, low=0.0, high=1.12,
            run=_figure5, score=lambda rows: _max_slowdown(rows, "dfq"),
        ),
        PaperClaim(
            key="fig6_fair_pair_slowdown",
            section="5.3",
            statement="co-scheduled compute tasks see the expected ~2x",
            paper_value=2.0, low=1.5, high=3.2,
            run=_figure6, score=_fair_pair_slowdown,
        ),
        PaperClaim(
            key="fig6_dfq_pair_throttle_slowdown",
            section="5.3",
            statement="under DFQ, Throttle paired with a compute app stays "
                      "near the fair 2x",
            paper_value=2.0, low=0.0, high=3.4,
            run=_figure6,
            score=lambda outcomes: max(
                o.throttle_slowdown for o in outcomes
                if o.scheduler == "dfq" and o.app in _COMPUTE_APPS
            ),
        ),
        PaperClaim(
            key="fig6_direct_dct_large_throttle",
            section="5.3",
            statement="direct access slows DCT >10x against large Throttle",
            paper_value=10.0, low=8.0, high=40.0,
            run=_figure6,
            score=lambda outcomes: _one(
                outcomes, scheduler="direct", app="DCT", throttle_size_us=1700.0
            ).app_slowdown,
        ),
        PaperClaim(
            key="gears_anomaly_disparity",
            section="5.3",
            statement="glxgears completes at ~1/3 Throttle's rate under DFQ",
            paper_value=3.0, low=1.3, high=6.0,
            run=_figure6,
            score=_gears_disparity,
        ),
        PaperClaim(
            key="fig7_dfq_mean_loss",
            section="5.3",
            statement="DFQ loses 4% on average vs direct access",
            paper_value=0.04, low=0.0, high=0.10, unit="fraction",
            run=_figure7,
            score=lambda summaries: _named(summaries)["dfq"].mean_loss_vs_direct,
        ),
        PaperClaim(
            key="fig7_dfq_max_loss",
            section="5.3",
            statement="DFQ loses at most 18% vs direct access",
            paper_value=0.18, low=0.0, high=0.20, unit="fraction",
            run=_figure7,
            score=lambda summaries: _named(summaries)["dfq"].max_loss_vs_direct,
        ),
        PaperClaim(
            key="fig7_dfq_minus_dts_mean_loss",
            section="5.3",
            statement="DFQ loses no more than Disengaged Timeslice on average "
                      "(4% vs 10%)",
            paper_value=-0.06, low=-INF, high=0.02, unit="fraction",
            run=_figure7,
            score=lambda summaries: (
                _named(summaries)["dfq"].mean_loss_vs_direct
                - _named(summaries)["disengaged-timeslice"].mean_loss_vs_direct
            ),
        ),
        PaperClaim(
            key="fig7_dts_minus_ts_mean_loss",
            section="5.3",
            statement="Disengaged Timeslice loses no more than engaged "
                      "Timeslice on average (10% vs 19%)",
            paper_value=-0.09, low=-INF, high=0.02, unit="fraction",
            run=_figure7,
            score=lambda summaries: (
                _named(summaries)["disengaged-timeslice"].mean_loss_vs_direct
                - _named(summaries)["timeslice"].mean_loss_vs_direct
            ),
        ),
        PaperClaim(
            key="fig8_direct_max_slowdown",
            section="5.3",
            statement="four-way direct access crushes somebody",
            paper_value=None, low=6.0, high=INF,
            run=_figure8,
            score=lambda rows: max(_named(rows)["direct"].slowdowns.values()),
        ),
        PaperClaim(
            key="fig8_managed_max_slowdown",
            section="5.3",
            statement="the paper's schedulers keep four-way slowdowns near "
                      "the expected 4-5x",
            paper_value=None, low=0.0, high=8.0,
            run=_figure8,
            score=lambda rows: max(
                max(row.slowdowns.values()) for row in rows
                if row.scheduler in _MANAGED
            ),
        ),
        PaperClaim(
            key="fig8_dfq_minus_ts_efficiency",
            section="5.3",
            statement="four-way DFQ is about as efficient as engaged "
                      "Timeslice or better (losses 7% vs 13%)",
            paper_value=0.06, low=-0.05, high=INF, unit="efficiency",
            run=_figure8,
            score=lambda rows: (_named(rows)["dfq"].efficiency
                                - _named(rows)["timeslice"].efficiency),
        ),
        PaperClaim(
            key="fig9_dfq_dct_benefits",
            section="5.4",
            statement="under DFQ, DCT benefits from a sleeping co-runner",
            paper_value=1.3, low=1.0, high=1.7,
            run=_figure9,
            score=lambda cells: _one(cells, scheduler="dfq",
                                     sleep_ratio=0.8).app_slowdown,
        ),
        PaperClaim(
            key="fig9_dfq_vs_ts_dct_slowdown",
            section="5.4",
            statement="at 80% sleep, DCT fares better under DFQ than under "
                      "Timeslice, which idles",
            paper_value=None, low=0.0, high=1.0,
            run=_figure9,
            score=lambda cells: (
                _one(cells, scheduler="dfq", sleep_ratio=0.8).app_slowdown
                / _one(cells, scheduler="timeslice",
                       sleep_ratio=0.8).app_slowdown
            ),
        ),
        PaperClaim(
            key="fig9_dfq_throttle_slowdown",
            section="5.4",
            statement="under DFQ, the 80%-sleeping Throttle does not suffer",
            paper_value=None, low=0.0, high=2.5,
            run=_figure9,
            score=lambda cells: _one(cells, scheduler="dfq",
                                     sleep_ratio=0.8).throttle_slowdown,
        ),
        PaperClaim(
            key="fig10_ts_loss_at_80pct",
            section="5.4",
            statement="engaged Timeslice loses 36% efficiency at 80% sleep",
            paper_value=0.36, low=0.15, high=1.0, unit="fraction",
            run=_figure10,
            score=lambda rows: _one(rows, scheduler="timeslice",
                                    sleep_ratio=0.8).loss_vs_direct,
        ),
        PaperClaim(
            key="fig10_dts_loss_at_80pct",
            section="5.4",
            statement="Disengaged Timeslice loses 34% efficiency at 80% sleep",
            paper_value=0.34, low=0.15, high=1.0, unit="fraction",
            run=_figure10,
            score=lambda rows: _one(rows, scheduler="disengaged-timeslice",
                                    sleep_ratio=0.8).loss_vs_direct,
        ),
        PaperClaim(
            key="fig10_dfq_loss_at_80pct",
            section="5.4",
            statement="DFQ's nonsaturating efficiency loss is essentially 0%",
            paper_value=0.0, low=0.0, high=0.12, unit="fraction",
            run=_figure10,
            score=lambda rows: _one(rows, scheduler="dfq",
                                    sleep_ratio=0.8).loss_vs_direct,
        ),
        PaperClaim(
            key="loop_direct_attacker_killed",
            section="3.1",
            statement="direct access never kills an infinite-loop request",
            paper_value=0.0, low=0.0, high=0.0, unit="bool",
            run=_infinite_loop,
            score=lambda outcomes: _named(outcomes)["direct"].attacker_killed,
        ),
        PaperClaim(
            key="loop_direct_victim_starved",
            section="3.1",
            statement="under direct access the infinite loop starves the victim",
            paper_value=1.0, low=1.0, high=1.0, unit="bool",
            run=_infinite_loop,
            score=lambda outcomes: _named(outcomes)["direct"].victim_starved,
        ),
        PaperClaim(
            key="loop_managed_attacker_killed",
            section="3.1",
            statement="every scheduler kills the infinite-loop request",
            paper_value=1.0, low=1.0, high=1.0, unit="bool",
            run=_infinite_loop,
            score=lambda outcomes: _share(
                [o for o in outcomes if o.scheduler in _MANAGED], "attacker_killed"),
        ),
        PaperClaim(
            key="loop_managed_victim_starved",
            section="3.1",
            statement="under every scheduler the victim keeps running",
            paper_value=0.0, low=0.0, high=0.0, unit="bool",
            run=_infinite_loop,
            score=lambda outcomes: _share(
                [o for o in outcomes if o.scheduler in _MANAGED], "victim_starved"),
        ),
        PaperClaim(
            key="batcher_direct_share",
            section="3.1",
            statement="under direct access a greedy batcher takes the device",
            paper_value=None, low=0.8, high=1.0, unit="fraction",
            run=_greedy_batcher,
            score=lambda outcomes: _named(outcomes)["direct"].batcher_share,
        ),
        PaperClaim(
            key="batcher_timeslice_max_share",
            section="3.1",
            statement="the timeslice schedulers hold a greedy batcher near "
                      "half the device",
            paper_value=None, low=0.0, high=0.65, unit="fraction",
            run=_greedy_batcher,
            score=lambda outcomes: max(
                _named(outcomes)[name].batcher_share
                for name in ("timeslice", "disengaged-timeslice")
            ),
        ),
        PaperClaim(
            key="batcher_dfq_share",
            section="3.3",
            statement="DFQ holds a greedy batcher to an interval-granular "
                      "share of the device",
            paper_value=None, low=0.0, high=0.72, unit="fraction",
            run=_greedy_batcher,
            score=lambda outcomes: _named(outcomes)["dfq"].batcher_share,
        ),
        PaperClaim(
            key="dos_context_limit",
            section="6.3",
            statement="48 contexts exhaust the GTX670",
            paper_value=48.0, low=48.0, high=48.0, unit="contexts",
            run=_section6,
            score=lambda outcomes: _one(outcomes,
                                        quota_enabled=False).hog_contexts,
        ),
        PaperClaim(
            key="dos_unprotected_locked_out",
            section="6.3",
            statement="without a quota the context hog locks the victim out",
            paper_value=1.0, low=1.0, high=1.0, unit="bool",
            run=_section6,
            score=lambda outcomes: _one(
                outcomes, quota_enabled=False).victim_locked_out,
        ),
        PaperClaim(
            key="dos_quota_locked_out",
            section="6.3",
            statement="a per-task channel quota keeps the victim running",
            paper_value=0.0, low=0.0, high=0.0, unit="bool",
            run=_section6,
            score=lambda outcomes: _one(
                outcomes, quota_enabled=True).victim_locked_out,
        ),
        PaperClaim(
            key="preempt_attacker_killed",
            section="6.2",
            statement="with hardware preemption an infinite loop is "
                      "tolerated, not killed",
            paper_value=0.0, low=0.0, high=0.0, unit="bool",
            run=_containment,
            score=lambda outcomes: _share(
                [o for o in outcomes if o.preemption], "attacker_killed"),
        ),
        PaperClaim(
            key="no_preempt_attacker_killed",
            section="6.2",
            statement="without hardware preemption killing is the only "
                      "protection",
            paper_value=1.0, low=1.0, high=1.0, unit="bool",
            run=_containment,
            score=lambda outcomes: _share(
                [o for o in outcomes if not o.preemption], "attacker_killed"),
        ),
        PaperClaim(
            key="preempt_max_attacker_share",
            section="6.2",
            statement="a preempted infinite loop gets a bounded device share",
            paper_value=None, low=0.0, high=0.75, unit="fraction",
            run=_containment,
            score=lambda outcomes: max(o.attacker_share for o in outcomes
                                       if o.preemption),
        ),
        PaperClaim(
            key="preempt_max_victim_slowdown",
            section="6.2",
            statement="beside a preempted infinite loop the victim keeps going",
            paper_value=None, low=0.0, high=3.0,
            run=_containment,
            score=lambda outcomes: max(o.victim_slowdown for o in outcomes
                                       if o.preemption),
        ),
        PaperClaim(
            key="preempt_min_preemptions",
            section="6.2",
            statement="containment comes from preempting the loop",
            paper_value=None, low=1.0, high=INF, unit="preemptions",
            run=_containment,
            score=lambda outcomes: min(o.preemptions for o in outcomes
                                       if o.preemption),
        ),
        PaperClaim(
            key="hw_stats_sampling_disparity",
            section="6.1",
            statement="sampling-based DFQ shows the glxgears anomaly",
            paper_value=3.0, low=1.3, high=INF,
            run=_hw_stats,
            score=lambda outcomes: _named(outcomes)["dfq"].disparity,
        ),
        PaperClaim(
            key="hw_stats_disparity",
            section="6.1",
            statement="vendor usage counters bring glxgears near even",
            paper_value=None, low=0.6, high=1.5,
            run=_hw_stats,
            score=lambda outcomes: _named(outcomes)["dfq-hw"].disparity,
        ),
        PaperClaim(
            key="hw_stats_vs_sampling_disparity",
            section="6.1",
            statement="vendor usage counters shrink the glxgears anomaly",
            paper_value=None, low=0.0, high=1.0,
            run=_hw_stats,
            score=lambda outcomes: (_named(outcomes)["dfq-hw"].disparity
                                    / _named(outcomes)["dfq"].disparity),
        ),
        PaperClaim(
            key="freerun_overhead_gain",
            section="3.3",
            statement="longer free runs amortize engagement cost "
                      "(10x minus 2x multiplier overhead)",
            paper_value=None, low=-INF, high=0.02, unit="fraction",
            run=_freerun, score=_freerun_gain,
        ),
        PaperClaim(
            key="baselines_max_app_slowdown",
            section="2",
            statement="per-request fair queueing baselines bound the unfairness",
            paper_value=None, low=0.0, high=4.2,
            run=_baselines,
            score=lambda outcomes: max(o.app_slowdown for o in outcomes),
        ),
        PaperClaim(
            key="baselines_max_throttle_slowdown",
            section="2",
            statement="per-request baselines keep Throttle near the fair 2x",
            paper_value=None, low=0.0, high=2.5,
            run=_baselines,
            score=lambda outcomes: max(o.throttle_slowdown for o in outcomes),
        ),
        PaperClaim(
            key="baselines_dfq_app_slowdown",
            section="2",
            statement="DFQ's interval-level control keeps the think-time app "
                      "near the fair 2x",
            paper_value=None, low=0.0, high=2.5,
            run=_baselines,
            score=lambda outcomes: _named(outcomes)["dfq"].app_slowdown,
        ),
        PaperClaim(
            key="baselines_credit_app_slowdown",
            section="2",
            statement="the credit baseline keeps the think-time app near 2x",
            paper_value=None, low=0.0, high=2.5,
            run=_baselines,
            score=lambda outcomes: _named(outcomes)["credit"].app_slowdown,
        ),
        PaperClaim(
            key="baselines_dfq_overhead_margin",
            section="2",
            statement="DFQ pays the least standalone overhead of the "
                      "per-request baselines (DFQ minus the cheapest other)",
            paper_value=None, low=-INF, high=0.02, unit="fraction",
            run=_baselines, score=_baseline_overhead_margin,
        ),
    ]
}


def measure(
    claims: Iterable[PaperClaim], seed: int = 0, **farm: Any
) -> dict[str, float]:
    """Each claim's measured value; claims with one ``run`` share its result.

    ``farm`` (workers, cache) goes to the cell-farm drivers; one
    ``cache`` dict lets figures that share cells compute them once.
    """
    results: dict[Callable, Any] = {}
    measured = {}
    for claim in claims:
        if claim.run not in results:
            results[claim.run] = claim.run(seed, farm)
        measured[claim.key] = float(claim.score(results[claim.run]))
    return measured


def shape_report(measurements: dict[str, float]) -> str:
    """Scoreboard: one line per provided measurement vs its claim."""
    lines = ["paper-claim scoreboard:"]
    for key, measured in measurements.items():
        claim = PAPER.get(key)
        if claim is None:
            lines.append(f"  {key}: UNKNOWN CLAIM")
            continue
        verdict = "ok" if claim.accepts(measured) else "OUT OF BAND"
        paper = "-" if claim.paper_value is None else f"{claim.paper_value:.3g}"
        lines.append(
            f"  {key}: measured {measured:.3g} {claim.unit} "
            f"(paper {paper}, band "
            f"[{claim.low:.3g}, {claim.high:.3g}]) -> {verdict}"
        )
    return "\n".join(lines)
