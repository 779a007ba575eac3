"""Tests for coroutine processes."""

import pytest

from repro.errors import ProcessFailure, SimulationError
from repro.sim import Simulator


def test_process_advances_time_with_yielded_delays():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(sim.now)
        yield 1.0
        trace.append(sim.now)
        yield 2.5
        trace.append(sim.now)

    sim.spawn(worker(), "w")
    sim.run()
    assert trace == [0.0, 1.0, 3.5]


def test_process_starts_asynchronously():
    sim = Simulator()
    trace = []

    def worker():
        trace.append("started")
        yield 0.0

    sim.spawn(worker(), "w")
    assert trace == []  # not started until the kernel runs
    sim.run()
    assert trace == ["started"]


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    event = sim.event("sig")
    got = []

    def worker():
        value = yield event
        got.append((sim.now, value))

    sim.spawn(worker(), "w")
    sim.schedule(4.0, event.succeed, "hello")
    sim.run()
    assert got == [(4.0, "hello")]


def test_process_return_value_and_termination_event():
    sim = Simulator()

    def worker():
        yield 1.0
        return 99

    proc = sim.spawn(worker(), "w")
    sim.run()
    assert not proc.alive
    assert proc.result == 99
    assert proc.terminated.triggered
    assert proc.terminated.value == 99


def test_join_another_process():
    sim = Simulator()
    trace = []

    def child():
        yield 2.0
        return "child-result"

    def parent():
        proc = sim.spawn(child(), "child")
        value = yield proc
        trace.append((sim.now, value))

    sim.spawn(parent(), "parent")
    sim.run()
    assert trace == [(2.0, "child-result")]


def test_join_already_terminated_process():
    sim = Simulator()
    trace = []

    def child():
        return "done"
        yield  # pragma: no cover - makes it a generator

    def parent():
        proc = sim.spawn(child(), "child")
        yield 5.0  # child finishes long before
        value = yield proc
        trace.append((sim.now, value))

    sim.spawn(parent(), "parent")
    sim.run()
    assert trace == [(5.0, "done")]


def test_yield_from_subgenerator_composition():
    sim = Simulator()
    trace = []

    def step(dt):
        yield dt
        return sim.now

    def worker():
        t1 = yield from step(1.0)
        t2 = yield from step(2.0)
        trace.append((t1, t2))

    sim.spawn(worker(), "w")
    sim.run()
    assert trace == [(1.0, 3.0)]


def test_exception_in_process_wrapped_as_failure():
    sim = Simulator()

    def bad():
        yield 1.0
        raise RuntimeError("kaput")

    sim.spawn(bad(), "bad")
    with pytest.raises(ProcessFailure, match="bad"):
        sim.run()


def test_failure_preserves_cause():
    sim = Simulator()

    def bad():
        yield 0.0
        raise KeyError("inner")

    sim.spawn(bad(), "oops")
    try:
        sim.run()
    except ProcessFailure as failure:
        assert isinstance(failure.__cause__, KeyError)
    else:  # pragma: no cover
        pytest.fail("expected ProcessFailure")


def test_yielding_garbage_raises():
    sim = Simulator()

    def bad():
        yield object()

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError, match="unsupported"):
        sim.run()


def test_negative_delay_from_process_raises():
    sim = Simulator()

    def bad():
        yield -1.0

    sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError, match="negative"):
        sim.run()


def test_nan_delay_from_process_fails_like_negative():
    # Regression: NaN escaped the negative-delay check, surfaced as an
    # unnamed kernel error, and left the process alive with an open generator.
    sim = Simulator()
    closed = []

    def bad():
        try:
            yield float("nan")
        finally:
            closed.append(True)

    process = sim.spawn(bad(), "bad")
    with pytest.raises(SimulationError, match="process 'bad' yielded NaN delay"):
        sim.run()
    assert not process.alive
    assert closed == [True]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    trace = []

    def worker(label, period):
        for _ in range(3):
            yield period
            trace.append((sim.now, label))

    sim.spawn(worker("a", 1.0), "a")
    sim.spawn(worker("b", 1.5), "b")
    sim.run()
    assert trace == [
        (1.0, "a"),
        (1.5, "b"),
        (2.0, "a"),
        # At t=3.0 both wake; b's wakeup was scheduled earlier (at t=1.5)
        # so it wins the deterministic tie-break.
        (3.0, "b"),
        (3.0, "a"),
        (4.5, "b"),
    ]
