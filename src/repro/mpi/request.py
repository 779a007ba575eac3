"""Nonblocking-operation requests."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import SimEvent
from .datatypes import Envelope, Status

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["Request"]

_NAN = float("nan")


class Request(SimEvent):
    """Handle for a pending isend/irecv; it is its own completion event.

    A send request completes at *local* completion (the message is fully
    serialized by the NIC — the buffer could be reused); a receive request
    completes when a matching message has fully arrived, with the envelope
    as its value.  Wait on it with ``yield from comm.wait(request)``.
    """

    __slots__ = ("kind", "envelope")

    def __init__(self, sim: "Simulator", kind: str, name: str = "") -> None:
        if kind not in ("send", "recv"):
            raise ValueError(f"kind must be 'send' or 'recv', got {kind!r}")
        # SimEvent.__init__'s slots, set here: every message builds two
        # requests.
        self.sim = sim
        self.name = name
        self.value = None
        self._callbacks = []
        self._triggered = False
        self._trigger_time = _NAN
        self.kind = kind
        self.envelope: Optional[Envelope] = None

    @property
    def complete(self) -> bool:
        """Whether the operation has finished."""
        return self._triggered

    @property
    def status(self) -> Optional[Status]:
        """Who sent the matched message, with what tag and size (receives)."""
        envelope = self.envelope
        return None if envelope is None else Status.from_envelope(envelope)

    def _fulfill_recv(self, envelope: Envelope) -> None:
        """Internal: deliver a matched envelope to this receive request."""
        self.envelope = envelope
        self.succeed(envelope)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "complete" if self.complete else "pending"
        return f"<Request {self.kind} {state}>"
