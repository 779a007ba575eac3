"""Tests for SimEvent / AllOf / AnyOf semantics."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_event_initially_untriggered():
    sim = Simulator()
    event = sim.event("e")
    assert not event.triggered
    assert math.isnan(event.trigger_time)


def test_succeed_sets_value_and_time():
    sim = Simulator()
    event = sim.event("e")
    sim.schedule(3.0, event.succeed, "payload")
    sim.run()
    assert event.triggered
    assert event.value == "payload"
    assert event.trigger_time == 3.0


def test_double_succeed_raises():
    sim = Simulator()
    event = sim.event("e")
    event.succeed()
    with pytest.raises(SimulationError, match="twice"):
        event.succeed()


def test_callbacks_fire_in_registration_order():
    sim = Simulator()
    event = sim.event("e")
    hits = []
    event.on_trigger(lambda e: hits.append(1))
    event.on_trigger(lambda e: hits.append(2))
    event.succeed()
    sim.run()
    assert hits == [1, 2]


def test_callback_registered_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event("e")
    event.succeed("v")
    hits = []
    event.on_trigger(lambda e: hits.append(e.value))
    sim.run()
    assert hits == ["v"]


def test_callbacks_run_asynchronously_not_inline():
    """succeed() must not call callbacks synchronously (determinism)."""
    sim = Simulator()
    event = sim.event("e")
    hits = []
    event.on_trigger(lambda e: hits.append("cb"))
    event.succeed()
    assert hits == []  # nothing until the kernel runs
    sim.run()
    assert hits == ["cb"]


def test_all_of_fires_after_every_child():
    sim = Simulator()
    kids = [sim.event(f"k{i}") for i in range(3)]
    combo = sim.all_of(kids)
    sim.schedule(1.0, kids[2].succeed, "c")
    sim.schedule(2.0, kids[0].succeed, "a")
    sim.schedule(3.0, kids[1].succeed, "b")
    sim.run()
    assert combo.triggered
    assert combo.trigger_time == 3.0
    assert combo.value == ["a", "b", "c"]  # child order, not trigger order


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combo = sim.all_of([])
    assert combo.triggered
    assert combo.value == []


def test_all_of_with_pretriggered_children():
    sim = Simulator()
    kids = [sim.event("k0"), sim.event("k1")]
    kids[0].succeed("x")
    combo = sim.all_of(kids)
    sim.schedule(1.0, kids[1].succeed, "y")
    sim.run()
    assert combo.triggered
    assert combo.value == ["x", "y"]


def test_any_of_fires_on_first_child():
    sim = Simulator()
    kids = [sim.event(f"k{i}") for i in range(3)]
    combo = sim.any_of(kids)
    sim.schedule(2.0, kids[0].succeed, "slow")
    sim.schedule(1.0, kids[1].succeed, "fast")
    sim.run()
    assert combo.triggered
    assert combo.trigger_time == 1.0
    assert combo.value == (1, "fast")


def test_any_of_requires_children():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])


def test_any_of_tolerates_multiple_triggers():
    sim = Simulator()
    kids = [sim.event("a"), sim.event("b")]
    combo = sim.any_of(kids)
    sim.schedule(1.0, kids[0].succeed, "first")
    sim.schedule(1.0, kids[1].succeed, "second")
    sim.run()
    assert combo.value == (0, "first")


def test_entry_between_last_child_and_all_of_firing_runs_before_waiter():
    """An AllOf fires one hop after its last child, and its waiter one hop
    later; work scheduled at the same instant in between runs first."""
    sim = Simulator()
    kids = [sim.event("k0"), sim.event("k1")]
    combo = sim.all_of(kids)
    order = []

    def waiter():
        yield combo
        order.append("waiter")

    def trigger_last():
        kids[1].succeed("b")
        sim.schedule(0.0, order.append, "between")

    sim.spawn(waiter(), "waiter")
    sim.schedule(1.0, kids[0].succeed, "a")
    sim.schedule(2.0, trigger_last)
    sim.run()
    assert order == ["between", "waiter"]
    assert combo.trigger_time == 2.0


def test_child_with_direct_waiter_and_all_of_keeps_registration_order():
    """A child's direct waiters and the AllOfs over it are served in the
    order they registered, so each AllOf fires where it registered."""
    sim = Simulator()
    child = sim.event("child")
    order = []
    first = sim.all_of([child], name="first")
    first.on_trigger(lambda e: order.append("first.waiter"))

    def direct(event):
        order.append("direct")
        sim.schedule(0.0, order.append, "direct.follow-up")

    child.on_trigger(direct)
    second = sim.all_of([child], name="second")
    second.on_trigger(lambda e: order.append("second.waiter"))
    sim.schedule(1.0, child.succeed)
    sim.run()
    assert order == ["direct", "first.waiter", "direct.follow-up", "second.waiter"]
