"""Coroutine processes driven by the simulation kernel.

A process is a Python generator.  It advances simulated time and waits on
conditions by ``yield``-ing:

* a ``float``/``int`` — sleep that many simulated seconds;
* a :class:`~repro.sim.events.SimEvent` — suspend until it triggers; the
  expression evaluates to the event's value;
* another :class:`Process` — join it; evaluates to its return value.

Blocking helpers are composed with ``yield from``.  Exceptions raised inside a
process are wrapped in :class:`~repro.errors.ProcessFailure` and re-raised out
of the kernel so broken simulations fail loudly instead of deadlocking.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import ProcessFailure, SimulationError
from .events import SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["Process"]


class Process:
    """A running coroutine inside a :class:`~repro.sim.kernel.Simulator`.

    Create via :meth:`Simulator.spawn`.  The process starts at the current
    simulated time (asynchronously, on the next kernel step at ``now``).
    """

    __slots__ = ("sim", "name", "generator", "terminated", "_alive", "_result")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any], name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the workload function?"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        #: Event fired with the process return value when it finishes.
        self.terminated: SimEvent = sim.event(f"{self.name}.terminated")
        self._alive = True
        self._result: Any = None
        sim.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the process has not yet returned."""
        return self._alive

    @property
    def result(self) -> Any:
        """The process return value (``None`` until it finishes)."""
        return self._result

    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        """Advance the generator with ``value``, interpreting what it yields."""
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self._alive = False
            self._result = stop.value
            self.terminated.succeed(stop.value)
            return
        except Exception as exc:
            self._alive = False
            raise ProcessFailure(self.name, str(exc)) from exc

        if isinstance(target, SimEvent):
            target.on_trigger(self._resume_from_event)
        elif isinstance(target, (float, int)):
            if not target >= 0:
                kind = "negative" if target < 0 else "NaN"
                self._fail(SimulationError(f"process {self.name!r} yielded {kind} delay {target!r}"))
                return
            self.sim.schedule(float(target), self._resume, None)
        elif isinstance(target, Process):
            target.terminated.on_trigger(self._resume_from_event)
        else:
            self._fail(
                SimulationError(
                    f"process {self.name!r} yielded unsupported {type(target).__name__}; "
                    "yield a delay, SimEvent, or Process"
                )
            )

    def _resume_from_event(self, event: SimEvent) -> None:
        self._resume(event.value)

    def _fail(self, error: Exception) -> None:
        """Kill the generator and raise out of the kernel."""
        self._alive = False
        self.generator.close()
        raise error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "terminated"
        return f"<Process {self.name!r} {state}>"
