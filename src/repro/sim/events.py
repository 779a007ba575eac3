"""Triggerable events for the discrete-event simulator.

A :class:`SimEvent` is a one-shot condition that simulated processes can wait
on by ``yield``-ing it.  Events are triggered exactly once via
:meth:`SimEvent.succeed`; callbacks registered before or after the trigger all
fire in deterministic order at the simulated instant of the trigger.

An :class:`AllOf` is counted down synchronously: a child's ``succeed``
decrements it in place of scheduling a callback, and only the child that
brings the count to zero schedules the zero-delay entry that fires it — at
the point in the child's callback loop where a callback would have been
scheduled.  The heap entries this saves each did nothing but decrement the
count, so the order of every callback with side effects is unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Union

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["SimEvent", "AllOf", "AnyOf"]

Callback = Callable[["SimEvent"], None]

_NAN = float("nan")


class SimEvent:
    """A one-shot triggerable condition bound to a simulator.

    Processes wait on an event with ``value = yield event``.  The value passed
    to :meth:`succeed` is delivered to every waiter.
    """

    __slots__ = ("sim", "name", "value", "_callbacks", "_triggered", "_trigger_time")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.value: Any = None
        # Callbacks to schedule on trigger; AllOf parents sit among them,
        # in registration order, and are counted down in place.
        self._callbacks: Optional[List[Union[Callback, "AllOf"]]] = []
        self._triggered = False
        self._trigger_time: float = _NAN

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._triggered

    @property
    def trigger_time(self) -> float:
        """Simulated time at which the event fired (NaN if untriggered)."""
        return self._trigger_time

    def on_trigger(self, callback: Callback) -> None:
        """Register ``callback(event)``.

        If the event already fired, the callback is scheduled to run at the
        current simulated time (still asynchronously, preserving determinism).
        """
        if self._triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event, delivering ``value`` to all waiters.

        Raises:
            SimulationError: if the event was already triggered.
        """
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        sim = self.sim
        now = sim._now
        self._trigger_time = now
        self.value = value
        callbacks = self._callbacks
        self._callbacks = None  # break reference cycles, catch double fire
        if callbacks:
            args = (self,)
            for callback in callbacks:
                if isinstance(callback, AllOf):
                    # Count the parent down; the last child schedules it.
                    callback._pending -= 1
                    if callback._pending == 0:
                        sim._push(now, callback._fire, ())
                else:
                    sim._push(now, callback, args)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<SimEvent {self.name!r} {state}>"


class AllOf(SimEvent):
    """Composite event that fires once **all** child events have fired.

    Its value is the list of child values in the order the children were
    given (not trigger order).  It fires one zero-delay hop after its last
    child triggers, and its own waiters resume one hop after that.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = "") -> None:
        # SimEvent.__init__'s slots, set here: one join is built per waitall.
        self.sim = sim
        self.name = name or "all_of"
        self.value: Any = None
        self._callbacks: Optional[List[Union[Callback, "AllOf"]]] = []
        self._triggered = False
        self._trigger_time: float = _NAN
        self._children = children = list(events)
        if not children:
            self._pending = 0
            self.succeed([])
            return
        pending = len(children)
        for child in children:
            if child._triggered:
                pending -= 1  # already fired: counted, nothing to wait for
            else:
                child._callbacks.append(self)  # counted down by child.succeed
        self._pending = pending
        if pending == 0:
            sim._push(sim._now, self._fire, ())

    def _fire(self) -> None:
        self.succeed([child.value for child in self._children])


class AnyOf(SimEvent):
    """Composite event that fires as soon as **any** child event fires.

    Its value is the ``(index, value)`` pair of the first child to fire
    (ties broken by schedule order, deterministically).
    """

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = "") -> None:
        super().__init__(sim, name or "any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one child event")
        for index, child in enumerate(self._children):
            child.on_trigger(self._make_callback(index))

    def _make_callback(self, index: int) -> Callback:
        def _child_done(event: SimEvent) -> None:
            if not self.triggered:
                self.succeed((index, event.value))

        return _child_done
