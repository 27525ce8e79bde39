"""Determinism rules (NEON201-NEON204): positives and negatives."""

from repro.staticcheck import Config, run_analysis

from tests.staticcheck.conftest import rule_locations


def test_bad_determinism_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([fixtures / "bad_determinism.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON202", 3),  # import random
        ("NEON201", 10),  # time.time()
        ("NEON203", 14),  # unseeded np.random.default_rng()
        ("NEON203", 18),  # np.random.seed(7)
        ("NEON203", 19),  # np.random.random()
        ("NEON204", 24),  # for channel in ready (a set)
    ]


def test_clean_determinism_module_passes(fixtures):
    assert run_analysis([fixtures / "good_determinism.py"], Config()).violations == []


def test_rng_registry_module_is_exempt(tmp_path):
    # The same unseeded/global RNG calls are legal inside the module the
    # config designates as the seeded-stream registry.
    source = (
        "import numpy as np\n"
        "def make():\n"
        "    return np.random.default_rng()\n"
    )
    module = tmp_path / "rng.py"
    module.write_text(source)
    flagged = run_analysis([module], Config()).violations
    assert [v.rule_id for v in flagged] == ["NEON203"]
    exempt = run_analysis([module], Config(rng_modules=("rng",))).violations
    assert exempt == []


def test_wall_clock_flagged_even_in_rng_module(tmp_path):
    # The rng exemption covers randomness, not clocks.
    module = tmp_path / "rng.py"
    module.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    violations = run_analysis([module], Config(rng_modules=("rng",))).violations
    assert [v.rule_id for v in violations] == ["NEON201"]


def test_wall_clock_reference_alias_flagged(tmp_path):
    # Stashing the function reference is as nondeterministic as calling it;
    # the alias must not slip past call-site matching.
    module = tmp_path / "aliased_clock.py"
    module.write_text(
        "import time\n"
        "from time import perf_counter\n"
        "def clocks():\n"
        "    a = time.perf_counter\n"
        "    b = perf_counter\n"
        "    return a, b\n"
    )
    violations = run_analysis([module], Config()).violations
    assert [(v.rule_id, v.line) for v in violations] == [
        ("NEON201", 4),
        ("NEON201", 5),
    ]


def test_host_clock_modules_exempt_from_wall_clock_rule(tmp_path):
    # Host-side orchestration (the parallel cell farm) legitimately
    # measures host wall time; the exemption is scoped per module.
    source = (
        "import time\n"
        "def stamp():\n"
        "    clock = time.perf_counter\n"
        "    return clock(), time.monotonic()\n"
    )
    module = tmp_path / "farm.py"
    module.write_text(source)
    flagged = run_analysis([module], Config(host_clock_modules=())).violations
    assert {v.rule_id for v in flagged} == {"NEON201"}
    exempt = run_analysis([module], Config(host_clock_modules=("farm",))).violations
    assert exempt == []


def test_default_config_exempts_audited_host_clock_surface_only():
    # Exactly two modules may read the host clock: the cell farm and the
    # sanctioned accessor (everything else gets time via clock.host_clock).
    config = Config()
    assert config.is_host_clock_module("repro.experiments.parallel")
    assert config.is_host_clock_module("repro.obs.clock")
    assert not config.is_host_clock_module("repro.obs.profile")
    assert not config.is_host_clock_module("repro.experiments.runner")
    assert not config.is_host_clock_module("repro.experiments.progress")
    assert not config.is_host_clock_module("repro.obs.store")
    assert not config.is_host_clock_module("repro.sim.engine")


def test_bad_host_clock_fixture_flags_every_clock_read(fixtures):
    # perf_counter in a module outside the audited surface is NEON201 —
    # both dotted calls, the from-import alias, and time.time().
    violations = run_analysis([fixtures / "bad_host_clock.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON201", 14),  # time.perf_counter() (start)
        ("NEON201", 15),  # time.perf_counter() (stop)
        ("NEON201", 19),  # aliased perf_counter()
        ("NEON201", 23),  # time.time()
    ]


def test_numpy_alias_tracking(tmp_path):
    module = tmp_path / "aliases.py"
    module.write_text(
        "from numpy.random import default_rng\n"
        "import numpy.random as npr\n"
        "def make():\n"
        "    return default_rng(), npr.default_rng()\n"
    )
    violations = run_analysis([module], Config()).violations
    assert [(v.rule_id, v.line) for v in violations] == [
        ("NEON203", 4),
        ("NEON203", 4),
    ]
