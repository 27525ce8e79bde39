"""Tests for scheduler base-class plumbing and the registry."""

from repro.core.base import SchedulerBase, scheduler_registry
from repro.experiments.runner import build_env, run_workloads
from repro.workloads.throttle import Throttle


def test_registry_contains_all_schedulers():
    expected = {
        "direct", "timeslice", "disengaged-timeslice", "dfq", "dfq-hw",
        "engaged-fq", "drr", "credit",
    }
    assert expected <= set(scheduler_registry)


def test_registry_classes_are_instantiable():
    for name, cls in scheduler_registry.items():
        scheduler = cls()
        assert scheduler.name == name


def test_managed_tasks_tracks_channel_owners():
    env = build_env("direct")
    workload = Throttle(50.0)
    run_workloads(env, [workload], 2_000.0, 0.0)
    # Task exited at sim end?  It runs forever, so it stays managed.
    assert workload.task in env.scheduler.managed_tasks


def test_task_exit_untracks_channels():
    env = build_env("direct")
    workload = Throttle(50.0)
    workload.start(env.sim, env.kernel, env.rng)
    env.sim.run(until=1_000.0)
    assert env.scheduler.neon.channels_of(workload.task)
    env.kernel.exit_task(workload.task)
    assert workload.task not in env.scheduler.managed_tasks
    assert not env.scheduler.neon.channels_of(workload.task)


def test_manage_is_idempotent_and_skips_dead():
    env = build_env("direct")
    scheduler = env.scheduler
    task = env.kernel.create_task("t")
    assert scheduler._manage(task) is True
    assert scheduler._manage(task) is False
    assert scheduler.managed_tasks.count(task) == 1
    from repro.osmodel.task import TaskState

    dead = env.kernel.create_task("dead")
    dead.state = TaskState.DEAD
    assert scheduler._manage(dead) is False


def test_default_on_fault_allows():
    scheduler = SchedulerBase()
    assert scheduler.on_fault(None, None, None) is None
