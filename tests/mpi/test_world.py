"""Tests for MPIWorld, RankContext, and Job bookkeeping."""

import pytest

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.errors import ConfigurationError, MPIError
from repro.mpi import MPIWorld


@pytest.fixture()
def machine():
    return Machine(small_test_config())


def test_world_size_and_node_mapping(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(2), name="w")
    # 4 nodes x 2 sockets x 2 ranks/socket = 16 ranks
    assert world.size == 16
    assert world.node_of(0) == 0
    assert world.node_of(4) == 1
    assert world.node_ids == [0, 1, 2, 3]
    assert world.ranks_on_node(0) == [0, 1, 2, 3]


def test_local_index(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")
    # 2 ranks per node: local indices alternate 0, 1.
    assert [world.local_index_of(r) for r in range(4)] == [0, 1, 0, 1]


def test_two_worlds_do_not_share_cores(machine):
    MPIWorld.create(machine, PerSocketPlacement(1), name="first")
    second = MPIWorld.create(machine, PerSocketPlacement(1), name="second")
    assert second.size == 8
    # 2 cores/socket, both now full:
    with pytest.raises(ConfigurationError):
        MPIWorld.create(machine, PerSocketPlacement(1), name="third")


def test_empty_world_rejected(machine):
    with pytest.raises(ConfigurationError):
        MPIWorld(machine, [], name="empty")


def test_job_elapsed_and_results(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from ctx.compute(1e-3 * (ctx.rank + 1))
        return ctx.rank * 2

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert job.finished
    assert job.elapsed == pytest.approx(8e-3)  # slowest of 8 ranks
    assert job.results() == [r * 2 for r in range(8)]


def test_job_results_before_finish_raise(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from ctx.compute(1.0)

    job = world.launch(workload)
    with pytest.raises(MPIError):
        job.results()


def test_rank_context_properties(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")
    seen = {}

    def workload(ctx):
        if ctx.rank == 3:
            seen["node"] = ctx.node_id
            seen["local"] = ctx.local_index
            seen["clock"] = ctx.clock_hz
            seen["size"] = ctx.size
        return None
        yield

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert seen == {"node": 1, "local": 1, "clock": 2.6e9, "size": 8}


def test_compute_jitter_is_reproducible(machine):
    durations = []
    for _ in range(2):
        m = Machine(small_test_config(seed=5))
        world = MPIWorld.create(m, PerSocketPlacement(1), name="w")

        def workload(ctx):
            yield from ctx.compute(1e-3, jitter=0.1)
            return ctx.now

        job = world.launch(workload)
        m.sim.run_until_event(job.done)
        durations.append(tuple(job.results()))
    assert durations[0] == durations[1]
    assert len(set(durations[0])) > 1  # ranks draw different jitter


def test_sleep_cycles_uses_node_clock(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from ctx.sleep_cycles(2.6e6)  # 1 ms at 2.6 GHz
        return ctx.now

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert job.results()[0] == pytest.approx(1e-3)


def test_negative_compute_rejected(machine):
    from repro.errors import ProcessFailure

    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from ctx.compute(-1.0)

    job = world.launch(workload)
    with pytest.raises(ProcessFailure):
        machine.sim.run_until_event(job.done)


@pytest.mark.parametrize("phase", ["compute", "sleep"])
def test_nan_compute_and_sleep_rejected(machine, phase):
    # Regression: NaN passed the ``seconds < 0`` check and the phase took
    # zero simulated time.
    from repro.errors import ProcessFailure

    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from getattr(ctx, phase)(float("nan"))

    job = world.launch(workload)
    with pytest.raises(ProcessFailure, match=f"{phase} time must be non-negative") as info:
        machine.sim.run_until_event(job.done)
    assert isinstance(info.value.__cause__, MPIError)


def test_zero_compute_and_sleep_are_instant(machine):
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="w")

    def workload(ctx):
        yield from ctx.compute(0.0)
        yield from ctx.sleep(0.0)
        return ctx.now

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert all(t == 0.0 for t in job.results())
