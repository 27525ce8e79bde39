"""Parallel cell farm: determinism, result sharing, fallback.

The cross-driver equivalence tests run a *reduced* figure6/figure9 grid
twice — serial and with a worker pool — and require identical outcome
tables.  CI exercises this file with ``workers=2`` as its equivalence
gate (see .github/workflows/ci.yml).
"""

import io

from repro.experiments import figure6, figure9
from repro.experiments.cells import (
    CellSpec,
    WorkloadSpec,
    register_workload_kind,
)
from repro.experiments.parallel import (
    CellTiming,
    ResultCache,
    format_cell_timings,
    run_cells,
)
from repro.experiments.progress import CellProgress, progressing
from repro.workloads.throttle import Throttle

QUICK = dict(duration_us=60_000.0, warmup_us=10_000.0)

REDUCED_GRID = dict(
    apps=("DCT", "glxgears"),
    sizes=(19.0, 1700.0),
    schedulers=("direct", "dfq"),
)


def _quick_cells(count=3, size=33.0):
    return [
        CellSpec(
            "direct",
            (WorkloadSpec.throttle(size + index, name=f"t{index}"),),
            duration_us=5_000.0,
            warmup_us=500.0,
        )
        for index in range(count)
    ]


def test_run_cells_serial_matches_workers():
    specs = _quick_cells()
    serial = run_cells(specs, workers=1)
    pooled = run_cells(specs, workers=2)
    assert serial == pooled


def test_figure6_reduced_grid_parallel_equivalence():
    serial = figure6.run(**QUICK, **REDUCED_GRID)
    parallel = figure6.run(**QUICK, **REDUCED_GRID, workers=4)
    assert serial == parallel


def test_figure9_reduced_grid_parallel_equivalence():
    kwargs = dict(ratios=(0.0, 0.8), schedulers=("direct", "dfq"), **QUICK)
    serial = figure9.run(**kwargs)
    parallel = figure9.run(**kwargs, workers=4)
    assert serial == parallel


def test_baseline_cache_returns_exactly_the_uncached_results():
    cache: ResultCache = {}
    specs = _quick_cells(count=2)
    uncached = run_cells(specs, workers=1)
    cached_run = run_cells(specs, workers=1, cache=cache)
    timings: list[CellTiming] = []
    hit_run = run_cells(specs, workers=1, cache=cache, timings=timings)
    assert cached_run == uncached
    assert hit_run == cached_run
    # Second pass is pure cache: the very same objects come back.
    assert all(a is b for a, b in zip(cached_run, hit_run))
    assert [t.source for t in timings] == ["cache"] * len(specs)
    assert all(t.wall_s == 0.0 for t in timings)


def test_cache_shares_solo_baselines_across_drivers():
    cache: ResultCache = {}
    timings6: list[CellTiming] = []
    figure6.run(
        **QUICK,
        apps=("DCT",),
        sizes=(19.0,),
        schedulers=("direct",),
        cache=cache,
        timings=timings6,
    )
    # figure7-style rerun of the same grid must be 100% cache hits.
    timings_again: list[CellTiming] = []
    figure6.run(
        **QUICK,
        apps=("DCT",),
        sizes=(19.0,),
        schedulers=("direct",),
        cache=cache,
        timings=timings_again,
    )
    assert all(t.source == "cache" for t in timings_again)


def test_intra_call_duplicates_computed_once():
    spec = _quick_cells(count=1)[0]
    timings: list[CellTiming] = []
    results = run_cells([spec, spec, spec], workers=1, timings=timings)
    assert results[0] is results[1] is results[2]
    sources = sorted(t.source for t in timings)
    assert sources == ["dup", "dup", "run"]


def test_callable_specs_fall_back_to_serial():
    # A spec carrying a local callable content-keys (by its ``name``) but
    # does not pickle: the pool fails and the farm recomputes serially,
    # reporting each cell once, as "run".
    class LocalFactory:
        name = "local"

        def __call__(self, name):
            return Throttle(21.0, name=name)

    register_workload_kind("call", lambda factory, name: factory(name))
    specs = [
        CellSpec(
            "direct",
            (WorkloadSpec.of("call", LocalFactory(), name),),
            duration_us=5_000.0,
            warmup_us=500.0,
        )
        for name in ("c0", "c1")
    ]
    timings: list[CellTiming] = []
    stream = io.StringIO()
    with progressing(CellProgress(stream)):
        results = run_cells(specs, workers=2, timings=timings)
    assert "worker pool failed" in stream.getvalue()
    assert results[0]["c0"].rounds.count > 0
    assert results[1]["c1"].rounds.count > 0
    assert sorted(t.source for t in timings) == ["run", "run"]


class _ThirdFutureFails:
    """In-process stand-in for the worker pool whose third future raises."""

    def __init__(self, max_workers):
        self.submitted = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        from concurrent.futures import Future

        self.submitted += 1
        future = Future()
        if self.submitted == 3:
            future.set_exception(RuntimeError("worker died"))
        else:
            future.set_result(fn(*args))
        return future


def test_pool_fallback_reports_each_cell_once(monkeypatch):
    from repro.experiments import parallel
    from repro.obs.store import RunCollector, collecting

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _ThirdFutureFails)
    specs = _quick_cells(count=3)
    timings: list[CellTiming] = []
    collector = RunCollector("fallback")
    with collecting(collector):
        results = run_cells(specs, workers=2, timings=timings)
    assert results == run_cells(specs, workers=1)
    # The serial rerun reports every cell; the failed attempt reports none.
    assert [(t.index, t.source) for t in timings] == [
        (0, "run"), (1, "run"), (2, "run"),
    ]
    assert [(c["index"], c["source"]) for c in collector.cells] == [
        (0, "run"), (1, "run"), (2, "run"),
    ]
    assert format_cell_timings(timings).startswith(
        "cell farm: 3 cells (3 executed, 0 reused)"
    )


def test_timing_summary_mentions_cells_and_reuse():
    cache: ResultCache = {}
    specs = _quick_cells(count=2)
    timings: list[CellTiming] = []
    run_cells(specs, cache=cache, timings=timings)
    run_cells(specs, cache=cache, timings=timings)
    summary = format_cell_timings(timings)
    assert "4 cells" in summary
    assert "2 executed" in summary
    assert "2 reused" in summary


def test_empty_timing_summary():
    assert "no cells" in format_cell_timings([])


def test_collector_captures_every_cell_once():
    from repro.obs.store import RunCollector, collecting

    cache: ResultCache = {}
    spec_a, spec_b = _quick_cells(count=2)
    collector = RunCollector("unit")
    with collecting(collector):
        run_cells([spec_a, spec_b, spec_a], workers=1, cache=cache)
    assert [cell["index"] for cell in collector.cells] == [0, 1, 2]
    sources = [cell["source"] for cell in collector.cells]
    assert sorted(sources) == ["dup", "run", "run"]
    assert collector.cells[0]["workloads"]["t0"]["metrics"]
    # A second farm call under the same collector sees cache hits.
    with collecting(collector):
        run_cells([spec_a], workers=1, cache=cache)
    assert collector.cells[-1]["source"] == "cache"


def test_progress_renderer_emits_plain_lines_when_not_a_tty(capsys):
    import io

    from repro.experiments.progress import CellProgress, progressing

    stream = io.StringIO()  # not a TTY -> plain line mode
    with progressing(CellProgress(stream)):
        run_cells(_quick_cells(count=2), workers=1)
    out = stream.getvalue()
    assert "cell[0] run" in out
    assert "cell[1] run" in out
    assert "2/2 cells" in out
    # Nothing leaks to stdout: tables stay byte-identical.
    assert capsys.readouterr().out == ""


def test_no_observers_is_the_default_and_free():
    from repro.experiments.progress import active_progress
    from repro.obs.store import active_collector

    assert active_collector() is None
    assert active_progress() is None
