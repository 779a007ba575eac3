"""Collective operations implemented as point-to-point algorithms.

Real MPI libraries build collectives from sends and receives; so do we, which
means collectives exercise the network realistically: a 144-rank alltoall
really does put ~144² messages through the switch fabric.

Algorithms (standard choices for these message sizes):

* barrier — dissemination (⌈log₂ n⌉ rounds);
* bcast / reduce — binomial tree;
* allreduce — reduce to virtual root + bcast;
* gather / scatter — linear to/from root;
* allgather — ring (n−1 steps);
* alltoall — pairwise exchange (n−1 phases of sendrecv).

Every collective allocates a fresh tag block via
:meth:`Comm.next_collective_tag`, so back-to-back collectives never
cross-match (valid as long as all ranks call collectives in the same order,
the usual MPI contract).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import MPIError
from .communicator import Comm

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "alltoall",
    "scatter",
]

ReduceOp = Callable[[Any, Any], Any]


def _default_op(left: Any, right: Any) -> Any:
    """Default reduction: ``+`` (matches MPI_SUM for numbers/sequences)."""
    return left + right


def barrier(comm: Comm):
    """Dissemination barrier: after ⌈log₂ n⌉ rounds all ranks have synced."""
    size = comm.size
    tag = comm.next_collective_tag()
    if size == 1:
        return
    distance = 1
    round_index = 0
    while distance < size:
        dest = (comm.rank + distance) % size
        source = (comm.rank - distance) % size
        recv_request = comm.irecv(source, tag + round_index)
        send_request = comm.isend(dest, 0, tag + round_index)
        yield from comm.waitall([recv_request, send_request])
        distance *= 2
        round_index += 1


def _binomial_children(vrank: int, size: int) -> List[int]:
    """Virtual-rank children of ``vrank`` in a binomial tree rooted at 0."""
    if vrank == 0:
        limit = 1
        while limit < size:
            limit *= 2
    else:
        limit = vrank & -vrank  # lowest set bit
    children = []
    offset = limit // 2
    while offset >= 1:
        child = vrank + offset
        if child < size:
            children.append(child)
        offset //= 2
    return children


def _binomial_parent(vrank: int) -> int:
    """Virtual-rank parent of a non-root node in a binomial tree."""
    return vrank - (vrank & -vrank)


def bcast(comm: Comm, value: Any, root: int, nbytes: int):
    """Binomial-tree broadcast; returns the root's value on every rank."""
    size = comm.size
    tag = comm.next_collective_tag()
    if size == 1:
        return value
    vrank = (comm.rank - root) % size
    if vrank != 0:
        parent = (_binomial_parent(vrank) + root) % size
        value = yield from comm.recv(parent, tag)
    for child_vrank in _binomial_children(vrank, size):
        child = (child_vrank + root) % size
        yield from comm.send(child, nbytes, tag, payload=value)
    return value


def reduce(comm: Comm, value: Any, root: int, nbytes: int, op: Optional[ReduceOp] = None):
    """Binomial-tree reduction; the combined value lands on ``root``.

    Returns the reduction result on ``root`` and ``None`` elsewhere.
    Combination order is deterministic (children in descending offset), so
    non-commutative ops give reproducible results.
    """
    if op is None:
        op = _default_op
    size = comm.size
    tag = comm.next_collective_tag()
    if size == 1:
        return value
    vrank = (comm.rank - root) % size
    accumulated = value
    # Receive from children in the reverse of the bcast send order.
    for child_vrank in reversed(_binomial_children(vrank, size)):
        child = (child_vrank + root) % size
        child_value = yield from comm.recv(child, tag)
        if accumulated is None or child_value is None:
            accumulated = accumulated if child_value is None else child_value
        else:
            accumulated = op(accumulated, child_value)
    if vrank != 0:
        parent = (_binomial_parent(vrank) + root) % size
        yield from comm.send(parent, nbytes, tag, payload=accumulated)
        return None
    return accumulated


def allreduce(comm: Comm, value: Any, nbytes: int, op: Optional[ReduceOp] = None):
    """Reduce to rank 0 then broadcast: every rank gets the combined value."""
    combined = yield from reduce(comm, value, 0, nbytes, op)
    result = yield from bcast(comm, combined, 0, nbytes)
    return result


def gather(comm: Comm, value: Any, root: int, nbytes: int):
    """Linear gather; ``root`` returns the list of values by rank."""
    size = comm.size
    tag = comm.next_collective_tag()
    if comm.rank == root:
        results: List[Any] = [None] * size
        results[root] = value
        requests = [
            comm.irecv(source, tag) for source in range(size) if source != root
        ]
        yield from comm.waitall(requests)
        for request in requests:
            assert request.envelope is not None
            results[request.envelope.src] = request.envelope.payload
        return results
    yield from comm.send(root, nbytes, tag, payload=value)
    return None


def scatter(comm: Comm, values: Optional[List[Any]], root: int, nbytes: int):
    """Linear scatter; rank i returns ``values[i]`` as held by ``root``."""
    size = comm.size
    tag = comm.next_collective_tag()
    if comm.rank == root:
        if values is None or len(values) != size:
            raise MPIError(
                f"scatter root needs exactly {size} values, got "
                f"{None if values is None else len(values)}"
            )
        requests = []
        for dest in range(size):
            if dest != root:
                requests.append(comm.isend(dest, nbytes, tag, payload=values[dest]))
        yield from comm.waitall(requests)
        return values[root]
    result = yield from comm.recv(root, tag)
    return result


def allgather(comm: Comm, value: Any, nbytes: int):
    """Ring allgather: n−1 steps, each forwarding the newest block."""
    size = comm.size
    tag = comm.next_collective_tag()
    results: List[Any] = [None] * size
    results[comm.rank] = value
    if size == 1:
        return results
    right = (comm.rank + 1) % size
    left = (comm.rank - 1) % size
    outgoing_index = comm.rank
    for step in range(size - 1):
        recv_request = comm.irecv(left, tag + step)
        send_request = comm.isend(right, nbytes, tag + step, payload=results[outgoing_index])
        yield from comm.waitall([recv_request, send_request])
        incoming_index = (comm.rank - step - 1) % size
        assert recv_request.envelope is not None
        results[incoming_index] = recv_request.envelope.payload
        outgoing_index = incoming_index
    return results


def alltoall(comm: Comm, values: Optional[List[Any]], nbytes_per_pair: int):
    """Pairwise-exchange alltoall.

    Args:
        values: per-destination payloads (``None`` for timing-only traffic).
        nbytes_per_pair: bytes sent to each other rank.

    Returns:
        the list of values received, indexed by source rank (own slot keeps
        the local value).
    """
    size = comm.size
    tag = comm.next_collective_tag()
    if values is not None and len(values) != size:
        raise MPIError(f"alltoall needs {size} values, got {len(values)}")
    results: List[Any] = [None] * size
    results[comm.rank] = values[comm.rank] if values is not None else None
    # Untraced, each step waits on the join itself: the same heap entries
    # as waitall, without its generator and result list.  A traced world
    # keeps waitall, which records the wait interval.
    all_of = comm.sim.all_of if comm.world.tracer is None else None
    for step in range(1, size):
        dest = (comm.rank + step) % size
        source = (comm.rank - step) % size
        payload = values[dest] if values is not None else None
        recv_request = comm.irecv(source, tag + step)
        send_request = comm.isend(dest, nbytes_per_pair, tag + step, payload=payload)
        if all_of is not None:
            yield all_of((recv_request, send_request))
        else:
            yield from comm.waitall([recv_request, send_request])
        assert recv_request.envelope is not None
        results[source] = recv_request.envelope.payload
    return results
