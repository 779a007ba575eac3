"""Tests for the discrete-event kernel ordering and execution semantics."""

import math
import time
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator


def test_starts_at_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_executes_in_time_order():
    sim = Simulator()
    hits = []
    sim.schedule(2.0, hits.append, "late")
    sim.schedule(1.0, hits.append, "early")
    sim.schedule(3.0, hits.append, "latest")
    sim.run()
    assert hits == ["early", "late", "latest"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    hits = []
    for label in "abcde":
        sim.schedule(1.0, hits.append, label)
    sim.run()
    assert hits == list("abcde")


def test_clock_advances_to_callback_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_zero_delay_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(9.0, lambda: None)


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, "in")
    sim.schedule(5.0, hits.append, "out")
    sim.run(until=2.0)
    assert hits == ["in"]
    assert sim.now == 2.0
    # Remaining work still runs on a later call.
    sim.run()
    assert hits == ["in", "out"]


def test_run_until_advances_clock_even_with_empty_heap():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_with_caller_constructed_infinity_leaves_clock_finite():
    # Regression: the drain check used an identity test (`until is not
    # math.inf`), which a caller's float("inf") — equal but a distinct
    # object — slipped past, advancing the clock to infinity.
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=float("inf"))
    assert sim.now == 1.0
    assert not math.isinf(sim.now)


def test_run_with_empty_heap_and_infinite_until_keeps_clock():
    sim = Simulator(start_time=2.0)
    sim.run(until=float("inf"))
    assert sim.now == 2.0


def test_run_until_before_now_raises_and_keeps_clock():
    # Regression: run(until=t) with t in the past rewound the clock, so a
    # later zero-delay schedule landed in the simulated past.
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert sim.now == 3.0
    with pytest.raises(SimulationError, match="current time is 3.0"):
        sim.run(until=1.0)
    assert sim.now == 3.0
    hits = []
    sim.schedule(0.0, lambda: hits.append(sim.now))
    sim.run(until=3.0)  # until == now is allowed
    assert hits == [3.0]


def test_run_until_nan_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    assert sim.pending == 1


def test_callbacks_scheduled_during_run_execute():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 4:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3, 4]
    assert sim.now == 4.0


def test_cancel_prevents_execution():
    sim = Simulator()
    hits = []
    handle = sim.schedule_cancellable(1.0, hits.append, "x")
    handle.cancel()
    sim.run()
    assert hits == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule_cancellable(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_pending_excludes_cancelled_entries():
    sim = Simulator()
    live = sim.schedule_cancellable(1.0, lambda: None)
    dead = sim.schedule_cancellable(2.0, lambda: None)
    assert sim.pending == 2
    dead.cancel()
    assert sim.pending == 1
    assert sim.cancelled_pending == 1
    dead.cancel()  # idempotent: must not double-count
    assert sim.pending == 1
    live.cancel()
    assert sim.pending == 0
    assert sim.cancelled_pending == 2
    sim.run()
    assert sim.pending == 0
    assert sim.cancelled_pending == 0


def test_cancel_after_execution_does_not_skew_accounting():
    sim = Simulator()
    handle = sim.schedule_cancellable(1.0, lambda: None)
    sim.run()
    handle.cancel()  # too late: already ran
    assert sim.pending == 0
    assert sim.cancelled_pending == 0


def test_max_pending_is_live_queue_depth():
    sim = Simulator()
    handles = [sim.schedule_cancellable(float(i + 1), lambda: None) for i in range(3)]
    assert sim.max_pending == 3
    for handle in handles:
        handle.cancel()
    # Cancelled entries are dead weight: scheduling more live work on top of
    # them must not inflate the high-water mark past the true live depth.
    sim.schedule(0.5, lambda: None)
    assert sim.max_pending == 3
    for _ in range(4):
        sim.schedule(0.5, lambda: None)
    assert sim.max_pending == 5
    sim.run()


def test_max_pending_is_exact_on_an_mpi_run(monkeypatch):
    """Every heap entry of a real run is counted by the high-water mark.

    NICs, switch ports and events push through the kernel's internal push,
    not ``schedule``.  Recording the live depth after every heap push, and
    the mark before the next, catches a push that bypasses the kernel or
    skips the high-water update.
    """
    from repro.cluster import Machine, small_test_config
    from repro.mpi import MPIWorld
    from repro.sim import kernel
    from repro.workloads import FFTW, MILC

    # Sixteen nodes: the deepest queue is then reached by a switch egress
    # hop, an internal push, not by the process starts at time zero.
    machine = Machine(small_test_config(seed=0, node_count=16))
    sim = machine.sim
    start = sim.max_pending
    marks, depths = [], []
    heappush = kernel._heappush

    def recording_push(heap, entry):
        marks.append(sim.max_pending)
        heappush(heap, entry)
        depths.append(len(heap) - sim.cancelled_pending)

    monkeypatch.setattr(kernel, "_heappush", recording_push)
    jobs = [
        MPIWorld.create(machine, app.preferred_placement(machine.config), name=app.name)
        .launch(app)
        for app in (FFTW(iterations=1), MILC(iterations=3))
    ]
    for job in jobs:
        sim.run_until_event(job.done)
    assert len(depths) >= sim.events_executed > 10_000
    # Before each push, the mark is the deepest live queue seen so far.
    running = list(accumulate(depths, max, initial=start))
    assert marks == running[:-1]
    assert max(depths) == running[-1] == sim.max_pending
    assert sim.counters()["kernel.max_pending"] == float(sim.max_pending)


def test_counters_report_net_pending_and_cancelled_tally():
    sim = Simulator()
    sim.schedule_cancellable(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)
    snapshot = sim.counters()
    assert snapshot["kernel.pending"] == 1.0
    assert snapshot["kernel.cancelled_pending"] == 1.0
    sim.run()
    snapshot = sim.counters()
    assert snapshot["kernel.pending"] == 0.0
    assert snapshot["kernel.cancelled_pending"] == 0.0


def test_max_events_budget_raises():
    sim = Simulator()
    for _ in range(10):
        sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="budget"):
        sim.run(max_events=3)


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_kernel_executes_at_least_50k_events_per_second():
    # A loose floor on raw callback throughput (about 0.85 M events/s on
    # a 2-vCPU x86 host); only a gross regression of the heap loop trips it.
    sim = Simulator()

    def chain(remaining):
        if remaining:
            sim.schedule(1e-6, chain, remaining - 1)

    sim.schedule(0.0, chain, 200_000)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.events_executed == 200_001
    assert sim.events_executed / elapsed > 50_000


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_step_executes_single_callback():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, "a")
    sim.schedule(2.0, hits.append, "b")
    assert sim.step() is True
    assert hits == ["a"]


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_run_until_event_returns_value():
    sim = Simulator()
    event = sim.event("done")
    sim.schedule(2.0, event.succeed, 42)
    assert sim.run_until_event(event) == 42
    assert sim.now == 2.0


def test_run_until_event_raises_if_sim_dries_out():
    sim = Simulator()
    event = sim.event("never")
    with pytest.raises(SimulationError, match="dry"):
        sim.run_until_event(event)


def test_callback_exception_propagates():
    sim = Simulator()

    def boom():
        raise ValueError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(ValueError, match="boom"):
        sim.run()


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=60))
def test_property_execution_order_is_sorted_by_time(delays):
    """Whatever the insertion order, execution times are non-decreasing."""
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False), st.integers()),
        max_size=40,
    )
)
def test_property_equal_times_preserve_fifo(pairs):
    """Entries at identical times run in insertion order."""
    sim = Simulator()
    out = []
    for time, payload in pairs:
        sim.schedule(time, out.append, (time, payload))
    sim.run()
    # Stable sort of the input by time must equal execution order.
    assert out == sorted(pairs, key=lambda pair: pair[0])
