"""The per-rank communicator: point-to-point ops and collective entry points.

A :class:`Comm` is one rank's view of the world (mpi4py style: ``comm.rank``,
``comm.size``).  Blocking operations are generators composed with
``yield from``; nonblocking operations return :class:`Request` objects waited
on with :meth:`wait`/:meth:`waitall`.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Sequence

from ..errors import MPIError
from .datatypes import ANY_SOURCE, ANY_TAG, Envelope
from .request import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .world import MPIWorld

__all__ = ["Comm"]

#: Base of the tag space reserved for collective operations.
COLLECTIVE_TAG_BASE = 1 << 20

#: Bytes of the rendezvous RTS and CTS control messages.
RENDEZVOUS_CONTROL_BYTES = 64


class Comm:
    """One rank's communicator."""

    __slots__ = (
        "world", "rank", "size", "sim", "_collective_seq", "_node", "_flow", "_send_name",
        "_engine", "_nodes", "_engines",
    )

    def __init__(self, world: "MPIWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        #: Number of ranks in the world.
        self.size = world.size
        self.sim = world.machine.sim
        self._collective_seq = 0
        self._node = world.node_of(rank)
        self._engine = world.engine(rank)
        # The world's per-rank node and matching-engine tables, indexed
        # once per message.
        self._nodes = world._node_of
        self._engines = world._engines
        #: Arbitration and ECMP key of every message this rank sends.
        self._flow = (world.name, rank)
        self._send_name = f"rank{rank}.send"

    # ------------------------------------------------------------------
    # Point-to-point, nonblocking
    # ------------------------------------------------------------------
    def isend(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None) -> Request:
        """Start a nonblocking send of ``nbytes`` to rank ``dest``.

        Messages at or below the world's ``eager_threshold`` (or all
        messages, when the threshold is ``None``) use the eager protocol:
        the data ships immediately and the send completes at local NIC
        completion.  Larger messages use rendezvous: a small ready-to-send
        notice is matched first, a clear-to-send returns, and only then does
        the data move — so the send cannot complete before the receiver has
        posted a matching receive (real MPI's large-message behaviour).
        """
        if dest == self.rank or not 0 <= dest < self.size:
            self._check_rank(dest)
        if tag < 0:
            raise MPIError(f"send tag must be non-negative, got {tag}")
        world = self.world
        sim = self.sim
        envelope = Envelope(self.rank, dest, tag, nbytes, payload, sim._now)
        request = Request(sim, "send", self._send_name)
        threshold = world.eager_threshold
        if threshold is not None and nbytes > threshold:
            self._rendezvous_send(envelope, request)
            return request
        world.machine.network.send(
            self._node,
            self._nodes[dest],
            nbytes,
            partial(self._engines[dest].deliver, envelope),
            request.succeed,
            self._flow,
        )
        return request

    def _rendezvous_send(self, envelope: Envelope, send_request: Request) -> None:
        """RTS → match → CTS → data (see :meth:`isend`)."""
        world = self.world
        network = world.machine.network
        src_node = self._node
        dst_node = world.node_of(envelope.dst)
        flow = self._flow

        def on_match(recv_request: Request) -> None:
            # Receiver matched the RTS: return the clear-to-send.
            network.send(
                dst_node,
                src_node,
                RENDEZVOUS_CONTROL_BYTES,
                on_delivered=partial(stream_data, recv_request),
                flow=(world.name, envelope.dst),
            )

        def stream_data(recv_request: Request) -> None:
            network.send(
                src_node,
                dst_node,
                envelope.nbytes,
                on_delivered=partial(recv_request._fulfill_recv, envelope),
                on_sent=send_request.succeed,
                flow=flow,
            )

        envelope.on_match = on_match
        # Ship the ready-to-send notice (header-sized, eager).
        network.send(
            src_node,
            dst_node,
            RENDEZVOUS_CONTROL_BYTES,
            on_delivered=partial(world.engine(envelope.dst).deliver, envelope),
            flow=flow,
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Post a nonblocking receive."""
        if source != ANY_SOURCE and (source == self.rank or not 0 <= source < self.size):
            self._check_rank(source)
        if tag < 0 and tag != ANY_TAG:
            raise MPIError(f"receive tag must be non-negative, got {tag}")
        return self._engine.post(source, tag)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def wait(self, request: Request) -> Generator[Any, Any, Any]:
        """Block until ``request`` completes.

        Returns:
            the received payload for receives, ``None`` for sends.
        """
        tracer = self.world.tracer
        if tracer is not None and not request.triggered:
            start = self.sim.now
            value = yield request
            tracer.record(self.rank, "wait", start, self.sim.now)
        else:
            value = yield request
        if request.kind == "recv":
            envelope: Envelope = value
            return envelope.payload
        return None

    def waitall(self, requests: Sequence[Request]) -> Generator[Any, Any, List[Any]]:
        """Block until every request completes.

        Returns:
            per-request payloads (``None`` for sends), in request order.
        """
        combined = self.sim.all_of(requests)
        tracer = self.world.tracer
        if tracer is not None and not combined.triggered:
            start = self.sim.now
            yield combined
            tracer.record(self.rank, "wait", start, self.sim.now)
        else:
            yield combined
        results: List[Any] = []
        for request in requests:
            if request.kind == "recv":
                assert request.envelope is not None
                results.append(request.envelope.payload)
            else:
                results.append(None)
        return results

    # ------------------------------------------------------------------
    # Point-to-point, blocking
    # ------------------------------------------------------------------
    def send(self, dest: int, nbytes: int, tag: int = 0, payload: Any = None):
        """Blocking send (returns when locally complete)."""
        request = self.isend(dest, nbytes, tag, payload)
        yield from self.wait(request)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive; returns the payload."""
        request = self.irecv(source, tag)
        return (yield from self.wait(request))

    def sendrecv(
        self,
        dest: int,
        nbytes: int,
        source: int,
        tag: int = 0,
        payload: Any = None,
    ):
        """Simultaneous send+receive (deadlock-free exchange); returns payload."""
        recv_request = self.irecv(source, tag)
        send_request = self.isend(dest, nbytes, tag, payload)
        results = yield from self.waitall([recv_request, send_request])
        return results[0]

    # ------------------------------------------------------------------
    # Collectives (implemented in repro.mpi.collectives)
    # ------------------------------------------------------------------
    def next_collective_tag(self) -> int:
        """Allocate the tag for this rank's next collective call.

        Correct as long as all ranks issue collectives in the same order —
        the usual MPI requirement.
        """
        # Blocks are 4096 wide: ring/pairwise collectives use tag+step with
        # step < size, so this supports worlds up to 4096 ranks.
        tag = COLLECTIVE_TAG_BASE + self._collective_seq * 4096
        self._collective_seq += 1
        return tag

    # Each returns the collective's generator, for ``yield from``; being no
    # generator itself, the method adds no level that every resume of a
    # rank inside the collective would pass through.
    def barrier(self):
        from . import collectives

        return collectives.barrier(self)

    def bcast(self, value: Any, root: int, nbytes: int):
        from . import collectives

        return collectives.bcast(self, value, root, nbytes)

    def reduce(self, value: Any, root: int, nbytes: int, op=None):
        from . import collectives

        return collectives.reduce(self, value, root, nbytes, op)

    def allreduce(self, value: Any, nbytes: int, op=None):
        from . import collectives

        return collectives.allreduce(self, value, nbytes, op)

    def gather(self, value: Any, root: int, nbytes: int):
        from . import collectives

        return collectives.gather(self, value, root, nbytes)

    def allgather(self, value: Any, nbytes: int):
        from . import collectives

        return collectives.allgather(self, value, nbytes)

    def alltoall(self, values: Optional[List[Any]], nbytes_per_pair: int):
        from . import collectives

        return collectives.alltoall(self, values, nbytes_per_pair)

    def scatter(self, values: Optional[List[Any]], root: int, nbytes: int):
        from . import collectives

        return collectives.scatter(self, values, root, nbytes)

    # ------------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        # Callers test ``rank == self.rank or not 0 <= rank < self.size``
        # first, so a valid peer costs no call.
        if not 0 <= rank < self.size:
            raise MPIError(f"rank {rank} out of range [0, {self.size})")
        if rank == self.rank:
            # Self-messaging is legal MPI but almost always a bug in these
            # workloads; allow it (the network handles src==dst) but only
            # via explicit opt-in at the world level.
            if not self.world.allow_self_messages:
                raise MPIError(f"rank {rank} attempted to message itself")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Comm rank={self.rank}/{self.size}>"
