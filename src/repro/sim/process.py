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

from typing import TYPE_CHECKING, Any, Generator, Optional

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

    __slots__ = ("sim", "name", "generator", "terminated", "_alive", "_result", "_wake")

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
        # The callback of every wake-up, bound once: each awaited event
        # holds it, and every wait would otherwise bind a fresh method.
        self._wake = self._resume
        sim.schedule(0.0, self._wake, None)

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
    def _resume(self, event: Optional[SimEvent]) -> None:
        """Advance the generator, interpreting what it yields.

        ``event`` is the awaited event that woke the process, whose value
        the generator receives, or ``None`` at start and after a delay.
        """
        try:
            target = self.generator.send(None if event is None else event.value)
        except StopIteration as stop:
            self._alive = False
            self._result = stop.value
            self.terminated.succeed(stop.value)
            return
        except Exception as exc:
            self._alive = False
            raise ProcessFailure(self.name, str(exc)) from exc

        if isinstance(target, SimEvent):
            # SimEvent.on_trigger, inlined: a wait per message makes this
            # the most common yield.
            if target._triggered:
                sim = self.sim
                sim._push(sim._now, self._wake, (target,))
            else:
                target._callbacks.append(self._wake)
        elif isinstance(target, (float, int)):
            if not target >= 0:
                kind = "negative" if target < 0 else "NaN"
                self._fail(SimulationError(f"process {self.name!r} yielded {kind} delay {target!r}"))
                return
            self.sim.schedule(float(target), self._wake, None)
        elif isinstance(target, Process):
            target.terminated.on_trigger(self._wake)
        else:
            self._fail(
                SimulationError(
                    f"process {self.name!r} yielded unsupported {type(target).__name__}; "
                    "yield a delay, SimEvent, or Process"
                )
            )

    def _fail(self, error: Exception) -> None:
        """Kill the generator and raise out of the kernel."""
        self._alive = False
        self.generator.close()
        raise error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self._alive else "terminated"
        return f"<Process {self.name!r} {state}>"
