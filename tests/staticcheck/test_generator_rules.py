"""Generator-discipline rules (NEON301-NEON303): positives and negatives."""

from repro.staticcheck import Config, run_analysis

from tests.staticcheck.conftest import FIXTURES, rule_locations

#: A two-module package: ``Throttle`` (throttle.py) inherits its
#: generator ``submit`` from ``Workload`` (base.py).
GENERATOR_PKG = FIXTURES / "generator_pkg"
#: Two source roots with one dotted module name, ``pkg.mod``: the one
#: under ``a`` has findings, the one under ``b`` is clean.
TWIN_ROOTS = FIXTURES / "twin_roots"


def test_bad_generators_fixture_flags_each_seeded_violation(fixtures):
    violations = run_analysis([fixtures / "bad_generators.py"], Config()).violations
    assert rule_locations(violations) == [
        ("NEON301", 9),  # self._drain_all() discarded (local generator)
        ("NEON301", 10),  # self.neon.drain() discarded (known generator)
        ("NEON302", 11),  # yield self.neon.drain()
        ("NEON303", 12),  # self.neon.engage_all() flip count discarded
    ]


def test_clean_generator_module_passes(fixtures):
    assert run_analysis([fixtures / "good_generators.py"], Config()).violations == []


def test_local_generator_detection_ignores_nested_scopes(tmp_path):
    # make() is NOT a generator: the yield belongs to the nested function.
    # inner() resolves to nothing here (at runtime it is a NameError), and
    # an unresolved call counts only when its name is configured.
    module = tmp_path / "nested.py"
    module.write_text(
        "def make():\n"
        "    def inner():\n"
        "        yield 1\n"
        "    return inner\n"
        "\n"
        "def run():\n"
        "    make()\n"
        "    inner()\n"
    )
    assert run_analysis([module], Config()).violations == []


def test_generator_passed_as_argument_is_not_flagged(tmp_path):
    # Spawning a process from a generator hands the object over; that is
    # the legitimate way to *not* yield from it.
    module = tmp_path / "spawned.py"
    module.write_text(
        "def loop():\n"
        "    yield 1\n"
        "\n"
        "def setup(sim):\n"
        "    sim.spawn(loop(), name='scheduler')\n"
    )
    assert run_analysis([module], Config()).violations == []


def test_configured_generator_methods_extend_detection(tmp_path):
    module = tmp_path / "custom.py"
    module.write_text("def run(neon):\n    neon.settle()\n")
    assert run_analysis([module], Config()).violations == []
    config = Config(generator_methods=("settle",))
    violations = run_analysis([module], config).violations
    assert rule_locations(violations) == [("NEON301", 2)]


def test_plain_method_sharing_a_generator_name_is_not_flagged(fixtures):
    # self.device.submit is not Kernel.submit, whatever the file defines.
    violations = run_analysis([fixtures / "good_same_name.py"], Config()).violations
    assert violations == []


def test_inherited_generator_from_another_module_is_flagged():
    violations = run_analysis([GENERATOR_PKG], Config()).violations
    assert [
        (violation.path.rsplit("/", 1)[-1], violation.rule_id, violation.line)
        for violation in violations
    ] == [
        ("throttle.py", "NEON301", 12),  # self.submit(...) discarded
        ("throttle.py", "NEON302", 13),  # yield self.submit(...)
    ]


def test_configured_names_apply_only_to_unresolved_calls(tmp_path):
    # Queue.drain resolves to a plain method, so "drain" being a
    # configured generator name does not matter; self.neon.drain() cannot
    # be resolved and is judged by its name.
    module = tmp_path / "queue.py"
    module.write_text(
        "class Queue:\n"
        "    def drain(self):\n"
        "        return []\n"
        "\n"
        "    def reset(self):\n"
        "        self.drain()\n"
        "        self.neon.drain()\n"
    )
    violations = run_analysis([module], Config()).violations
    assert rule_locations(violations) == [("NEON301", 7)]


def test_same_module_name_under_two_roots_checks_both(fixtures):
    expected = [("NEON505", 3), ("NEON301", 11)]
    alone = run_analysis([TWIN_ROOTS / "a" / "pkg"], Config()).violations
    assert rule_locations(alone) == expected
    both = run_analysis(
        [TWIN_ROOTS / "a" / "pkg", TWIN_ROOTS / "b" / "pkg"], Config()
    ).violations
    assert both == alone
    reversed_order = run_analysis(
        [TWIN_ROOTS / "b" / "pkg", TWIN_ROOTS / "a" / "pkg"], Config()
    ).violations
    assert reversed_order == alone


def test_property_getter_with_setter_is_checked(fixtures):
    violations = run_analysis([fixtures / "property_setter.py"], Config())
    assert rule_locations(violations.violations) == [("NEON301", 10)]
