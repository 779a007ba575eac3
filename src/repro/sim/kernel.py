"""The discrete-event simulation kernel.

:class:`Simulator` owns a time-ordered event heap and executes callbacks in
deterministic order (time, then insertion sequence).  Everything else in the
library — the network fabric, NICs, MPI ranks — is built from callbacks and
coroutine processes scheduled on one simulator.

The kernel is deliberately small and allocation-light: the switch fabric
processes hundreds of thousands of packets per experiment, each costing a
handful of heap operations, so the hot-path entries are plain 4-tuples
``(time, seq, fn, args)`` on a ``heapq``; cancellable entries (rarely
needed) wrap their callback in a :class:`ScheduledCall` guard.

Every entry enters the heap through one internal push,
:meth:`Simulator._push`, which also keeps the ``max_pending`` high-water
mark.  The public ``schedule*`` methods validate their delay or time and
then push.  Callers whose delays are non-negative by construction push
directly, without validation: NIC serialization, the NIC-to-switch and
switch egress hops, output-port service, and the zero-delay hops of
:class:`~repro.sim.events.SimEvent`, :class:`~repro.sim.events.AllOf` and a
process waiting on an event that already fired.
Either way an entry gets the same time and the next sequence number, so
event order does not depend on which path scheduled it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import SimulationError
from .events import AllOf, AnyOf, SimEvent

__all__ = ["Simulator", "ScheduledCall"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledCall:
    """Handle for a cancellable scheduled callback."""

    __slots__ = ("time", "fn", "args", "cancelled", "executed", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        The owning simulator is told so its live queue-depth accounting
        (``pending``) excludes this now-dead heap entry; cancelling after
        the entry already ran (or was already cancelled) changes nothing.
        """
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        self.fn = None  # release references eagerly
        self.args = ()
        if self._sim is not None:
            self._sim._note_cancelled()

    def _run(self) -> None:
        self.executed = True
        if self.cancelled:
            # The dead entry just left the heap; settle the cancelled tally.
            if self._sim is not None:
                self._sim._note_cancelled_popped()
            return
        fn = self.fn
        assert fn is not None
        fn(*self.args)


class Simulator:
    """A deterministic discrete-event simulator.

    Args:
        start_time: initial simulated time (seconds).

    Example:
        >>> sim = Simulator()
        >>> hits = []
        >>> sim.schedule(1.5, hits.append, "a")
        >>> sim.schedule(0.5, hits.append, "b")
        >>> sim.run()
        >>> hits
        ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, Callable[..., Any], Tuple[Any, ...]]] = []
        self._sequence = 0
        self._events_executed = 0
        self._max_pending = 0
        self._cancelled = 0
        self._running = False
        self._counter_probes: Dict[str, Callable[[], float]] = {}

    # ------------------------------------------------------------------
    # Time & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (for budgeting/diagnostics).

        ``run`` and ``run_until_event`` tally in a local and add it here
        when they return, so a callback reading this mid-run sees the count
        as of the start of the current run.
        """
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live scheduled entries (cancelled ones excluded).

        Cancelled :class:`ScheduledCall` entries stay in the heap until
        their time comes up, but they are dead weight, not queued work —
        counting them would inflate the queue-depth telemetry.
        """
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still sitting in the heap."""
        return self._cancelled

    @property
    def max_pending(self) -> int:
        """High-water mark of live queue depth (cancelled entries excluded)."""
        return self._max_pending

    # Called by ScheduledCall only: keep the live-entry arithmetic in one
    # place so ``pending`` can never drift from the heap's true contents.
    def _note_cancelled(self) -> None:
        self._cancelled += 1

    def _note_cancelled_popped(self) -> None:
        self._cancelled -= 1

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def register_counter(self, name: str, probe: Callable[[], float]) -> None:
        """Register a named zero-argument counter probe.

        Components (NICs, switches, the message layer) expose their internal
        tallies through probes that are *pulled* on demand — the hot path
        pays nothing for instrumentation.  Re-registering a name replaces
        its probe.
        """
        self._counter_probes[name] = probe

    def counters(self) -> Dict[str, float]:
        """A snapshot of every registered counter plus the kernel's own.

        Keys are ``component.metric`` strings (``kernel.events``,
        ``switch0.served``, ...).  Values are plain numbers, JSON-safe by
        construction, so the snapshot can ride along in a
        :class:`~repro.core.experiments.runner.RunResult`.
        """
        snapshot: Dict[str, float] = {
            "kernel.events": float(self._events_executed),
            "kernel.pending": float(len(self._heap) - self._cancelled),
            "kernel.cancelled_pending": float(self._cancelled),
            "kernel.max_pending": float(self._max_pending),
        }
        for name, probe in self._counter_probes.items():
            snapshot[name] = float(probe())
        return snapshot

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative or NaN.
        """
        if not delay >= 0.0:  # negative or NaN
            raise SimulationError(f"cannot schedule with delay {delay!r}")
        self._push(self._now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulated time.

        Raises:
            SimulationError: if ``time`` lies in the simulated past.
        """
        if time < self._now or math.isnan(time):
            raise SimulationError(
                f"cannot schedule at t={time!r}; current time is {self._now!r}"
            )
        self._push(time, fn, args)

    def schedule_cancellable(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Like :meth:`schedule` but returns a cancellable handle."""
        if not delay >= 0.0:  # negative or NaN
            raise SimulationError(f"cannot schedule with delay {delay!r}")
        entry = ScheduledCall(self._now + delay, fn, args, self)
        self._push(entry.time, entry._run, ())
        return entry

    def _push(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """Push one heap entry at ``time``, without validation.

        Every ``schedule*`` method pushes through here after its checks.
        Components call it directly only where ``time`` is ``now`` plus a
        delay that is non-negative by construction (a delay built from
        parameters validated when the component was made), so it can
        never lie in the past or be NaN.
        """
        self._sequence += 1
        heap = self._heap
        _heappush(heap, (time, self._sequence, fn, args))
        # One compare per push keeps the queue-depth high-water mark
        # without any per-event work in the run loop.  Net of cancelled
        # entries, so max_pending stays a true live-queue-depth mark.
        depth = len(heap) - self._cancelled
        if depth > self._max_pending:
            self._max_pending = depth

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered :class:`SimEvent` bound to this simulator."""
        return SimEvent(self, name)

    def all_of(self, events: List[SimEvent], name: str = "") -> AllOf:
        """Event firing when all ``events`` have fired."""
        return AllOf(self, events, name)

    def any_of(self, events: List[SimEvent], name: str = "") -> AnyOf:
        """Event firing when the first of ``events`` fires."""
        return AnyOf(self, events, name)

    def spawn(self, generator: Generator[Any, Any, Any], name: str = "") -> "Process":
        """Start a coroutine process; see :class:`repro.sim.process.Process`."""
        from .process import Process  # local import to avoid a cycle

        return Process(self, generator, name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next scheduled callback.

        Returns:
            ``True`` if a callback ran, ``False`` if the heap was empty.
        """
        heap = self._heap
        if not heap:
            return False
        time, _seq, fn, args = _heappop(heap)
        self._now = time
        self._events_executed += 1
        fn(*args)
        return True

    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> None:
        """Run until the heap empties, ``until`` is reached, or budget expires.

        When stopping at ``until``, the clock is advanced to exactly ``until``
        if any work remained beyond it.

        Raises:
            SimulationError: on re-entrant ``run``, on ``until`` before the
                current time (or NaN), or on an exhausted event budget.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        if not until >= self._now:  # in the past, or NaN
            raise SimulationError(
                f"cannot run until t={until!r}; current time is {self._now!r}"
            )
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        pop = _heappop
        self._running = True
        executed = 0
        try:
            while heap:
                if heap[0][0] > until:
                    self._now = until
                    return
                if executed >= budget:
                    raise SimulationError(
                        f"event budget of {max_events} exhausted at t={self._now:.9f}"
                    )
                time, _seq, fn, args = pop(heap)
                self._now = time
                executed += 1
                fn(*args)
            # math.isinf, not an identity check: a caller's float("inf") is
            # equal to math.inf but not the same object, and the clock must
            # never be advanced to infinity when the heap drains.
            if not math.isinf(until) and until > self._now:
                self._now = until
        finally:
            self._events_executed += executed
            self._running = False

    def run_until_event(self, event: SimEvent, max_events: Optional[int] = None) -> Any:
        """Run until ``event`` triggers; return its value.

        Raises:
            SimulationError: if the heap empties before the event triggers,
                or the event budget runs out.
        """
        if self._running:
            raise SimulationError("Simulator.run_until_event() is not re-entrant")
        budget = math.inf if max_events is None else max_events
        heap = self._heap
        pop = _heappop
        self._running = True
        executed = 0
        try:
            while not event._triggered:
                if not heap:
                    raise SimulationError(
                        f"simulation ran dry before event {event.name!r} triggered"
                    )
                if executed >= budget:
                    raise SimulationError(
                        f"event budget of {max_events} exhausted waiting for {event.name!r}"
                    )
                time, _seq, fn, args = pop(heap)
                self._now = time
                executed += 1
                fn(*args)
        finally:
            self._events_executed += executed
            self._running = False
        return event.value
