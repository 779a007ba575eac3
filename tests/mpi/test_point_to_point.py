"""Tests for point-to-point messaging through the full stack."""

import pytest

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.errors import MPIError, ProcessFailure
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIWorld
from repro.units import KB, US


@pytest.fixture()
def machine():
    return Machine(small_test_config())


@pytest.fixture()
def world(machine):
    return MPIWorld.create(machine, PerSocketPlacement(1), name="t")


def _run(machine, world, factory):
    job = world.launch(factory)
    machine.sim.run_until_event(job.done)
    return job


def test_blocking_send_recv_payload(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1 * KB, tag=3, payload={"x": 42})
            return None
        if ctx.rank == 1:
            data = yield from ctx.comm.recv(0, tag=3)
            return data
        return None
        yield

    job = _run(machine, world, workload)
    assert job.results()[1] == {"x": 42}


def test_isend_completes_locally_before_delivery(machine, world):
    observations = {}

    def workload(ctx):
        # rank 2 lives on node 1, so the message crosses the fabric.
        if ctx.rank == 0:
            request = ctx.comm.isend(2, 64 * KB, tag=0)
            yield from ctx.comm.wait(request)
            observations["sent_at"] = ctx.now
        elif ctx.rank == 2:
            yield from ctx.comm.recv(0, tag=0)
            observations["recv_at"] = ctx.now
        return None
        yield

    _run(machine, world, workload)
    assert observations["sent_at"] < observations["recv_at"]


def test_message_latency_is_cab_scale(machine, world):
    """A 1KB one-way message crosses the idle switch in roughly 1-3 µs."""
    times = {}

    def workload(ctx):
        if ctx.rank == 0:
            start = ctx.now
            yield from ctx.comm.send(2, 1 * KB, tag=0)  # rank 2 is on node 1
        elif ctx.rank == 2:
            yield from ctx.comm.recv(0, tag=0)
            times["arrival"] = ctx.now
        return None
        yield

    _run(machine, world, workload)
    assert 0.5 * US < times["arrival"] < 5 * US


def test_sendrecv_exchanges_without_deadlock(machine, world):
    def workload(ctx):
        partner = ctx.rank ^ 1
        got = yield from ctx.comm.sendrecv(
            partner, 1 * KB, partner, tag=2, payload=ctx.rank
        )
        return got

    job = _run(machine, world, workload)
    assert job.results() == [1, 0, 3, 2, 5, 4, 7, 6]


def test_messages_nonovertaking_same_pair(machine, world):
    """Two same-pair messages with the same tag arrive in send order."""

    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 1 * KB, tag=0, payload="first")
            yield from ctx.comm.send(1, 1 * KB, tag=0, payload="second")
            return None
        if ctx.rank == 1:
            a = yield from ctx.comm.recv(0, tag=0)
            b = yield from ctx.comm.recv(0, tag=0)
            return (a, b)
        return None
        yield

    job = _run(machine, world, workload)
    assert job.results()[1] == ("first", "second")


def test_wildcard_receive_in_workload(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(3, 1 * KB, tag=11, payload="zero")
            return None
        if ctx.rank == 3:
            data = yield from ctx.comm.recv(ANY_SOURCE, ANY_TAG)
            return data
        return None
        yield

    job = _run(machine, world, workload)
    assert job.results()[3] == "zero"


def test_waitall_mixed_requests(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            reqs = [
                ctx.comm.isend(1, 1 * KB, tag=1, payload="a"),
                ctx.comm.isend(1, 1 * KB, tag=2, payload="b"),
            ]
            yield from ctx.comm.waitall(reqs)
            return None
        if ctx.rank == 1:
            reqs = [ctx.comm.irecv(0, tag=2), ctx.comm.irecv(0, tag=1)]
            values = yield from ctx.comm.waitall(reqs)
            return values
        return None
        yield

    job = _run(machine, world, workload)
    assert job.results()[1] == ["b", "a"]


def test_send_to_invalid_rank_raises(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(99, 1 * KB)
        return None
        yield

    job = world.launch(workload)
    with pytest.raises(ProcessFailure):
        machine.sim.run_until_event(job.done)


def test_self_message_rejected_by_default(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(0, 1 * KB)
        return None
        yield

    job = world.launch(workload)
    with pytest.raises(ProcessFailure):
        machine.sim.run_until_event(job.done)


def test_self_message_allowed_when_opted_in(machine):
    world = MPIWorld(
        machine,
        machine.allocate(PerSocketPlacement(1), "selfy"),
        name="selfy",
        allow_self_messages=True,
    )

    def workload(ctx):
        if ctx.rank == 0:
            request = ctx.comm.irecv(0, tag=0)
            yield from ctx.comm.send(0, 1 * KB, tag=0, payload="loop")
            value = yield from ctx.comm.wait(request)
            return value
        return None
        yield

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert job.results()[0] == "loop"


def test_negative_tag_rejected(machine, world):
    def workload(ctx):
        if ctx.rank == 0:
            ctx.comm.isend(1, 1 * KB, tag=-5)
        return None
        yield

    job = world.launch(workload)
    with pytest.raises(ProcessFailure):
        machine.sim.run_until_event(job.done)


def test_negative_receive_tag_rejected(machine, world):
    """A receive no send can match fails at once, not when the heap drains."""

    def workload(ctx):
        if ctx.rank == 0:
            yield from ctx.comm.send(1, 8, tag=2)
        elif ctx.rank == 1:
            yield from ctx.comm.recv(0, tag=-2)
        return None
        yield

    job = world.launch(workload)
    with pytest.raises(ProcessFailure, match="receive tag must be non-negative, got -2"):
        machine.sim.run_until_event(job.done)


def test_intra_node_faster_than_inter_node(machine):
    """Ranks 0,1 share node 0; rank 2 is on node 1."""
    world = MPIWorld.create(machine, PerSocketPlacement(1), name="lat")
    times = {}

    def workload(ctx):
        if ctx.rank == 0:
            start = ctx.now
            yield from ctx.comm.send(1, 1 * KB, tag=1)  # same node
            yield from ctx.comm.recv(1, tag=2)
            times["intra"] = ctx.now - start
            start = ctx.now
            yield from ctx.comm.send(2, 1 * KB, tag=3)  # other node
            yield from ctx.comm.recv(2, tag=4)
            times["inter"] = ctx.now - start
        elif ctx.rank == 1:
            yield from ctx.comm.recv(0, tag=1)
            yield from ctx.comm.send(0, 1 * KB, tag=2)
        elif ctx.rank == 2:
            yield from ctx.comm.recv(0, tag=3)
            yield from ctx.comm.send(0, 1 * KB, tag=4)
        return None
        yield

    job = world.launch(workload)
    machine.sim.run_until_event(job.done)
    assert times["intra"] < times["inter"]
