"""Cell collection: installing and restoring the active collector."""

from repro.obs.store import RunCollector, active_collector, collecting


def test_collecting_installs_and_restores():
    assert active_collector() is None
    collector = RunCollector("x")
    with collecting(collector):
        assert active_collector() is collector
    assert active_collector() is None
