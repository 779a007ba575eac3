"""Per-rank message matching: posted receives vs unexpected messages.

Standard MPI semantics: a receive matches the *first* arrived (or arriving)
message whose (source, tag) satisfies the receive's (source, tag) pattern,
with ``ANY_SOURCE``/``ANY_TAG`` wildcards.  Messages between a fixed pair
are non-overtaking (guaranteed by the FIFO network path).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..sim import Simulator
from .datatypes import ANY_SOURCE, ANY_TAG, Envelope
from .request import Request

__all__ = ["MatchingEngine"]


class MatchingEngine:
    """Receive-matching state for one rank."""

    __slots__ = ("sim", "rank", "_posted", "_unexpected", "_recv_name")

    def __init__(self, sim: Simulator, rank: int) -> None:
        self.sim = sim
        self.rank = rank
        self._posted: Deque[Tuple[int, int, Request]] = deque()
        self._unexpected: Deque[Envelope] = deque()
        self._recv_name = f"rank{rank}.recv"

    @property
    def posted_count(self) -> int:
        """Receives posted but not yet matched."""
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        """Messages arrived before a matching receive was posted."""
        return len(self._unexpected)

    def post(self, source: int, tag: int) -> Request:
        """Post a receive; returns its request.

        If an unexpected message already matches, the request completes
        immediately (at the current simulated time).
        """
        request = Request(self.sim, "recv", self._recv_name)
        unexpected = self._unexpected
        for index, envelope in enumerate(unexpected):
            if (source == ANY_SOURCE or envelope.src == source) and (
                tag == ANY_TAG or envelope.tag == tag
            ):
                del unexpected[index]
                self._complete_match(envelope, request)
                return request
        self._posted.append((source, tag, request))
        return request

    def deliver(self, envelope: Envelope) -> None:
        """A message has fully arrived; match it or queue it."""
        envelope.delivered_at = self.sim._now
        src = envelope.src
        tag = envelope.tag
        posted = self._posted
        for index, (want_source, want_tag, request) in enumerate(posted):
            if (want_source == ANY_SOURCE or want_source == src) and (
                want_tag == ANY_TAG or want_tag == tag
            ):
                del posted[index]
                # _complete_match, inlined: every message arrives here.
                if envelope.on_match is not None:
                    envelope.on_match(request)
                else:
                    request.envelope = envelope
                    request.succeed(envelope)
                return
        self._unexpected.append(envelope)

    def _complete_match(self, envelope: Envelope, request: Request) -> None:
        """Fulfill the receive, or hand off to the rendezvous protocol."""
        if envelope.on_match is not None:
            envelope.on_match(request)
        else:
            request._fulfill_recv(envelope)
