"""Process-to-core placement policies.

The paper is specific about placement (§III-A): probe benchmarks get one
process per socket; applications get a fixed number of processes per socket
on all (or a subset of) nodes; co-running workloads never share cores.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .node import Core, Node

__all__ = [
    "Placement",
    "PerSocketPlacement",
    "BlockPlacement",
    "RoundRobinPlacement",
    "ExplicitPlacement",
]


class Placement(ABC):
    """Chooses cores for a job's ranks on a set of nodes."""

    @abstractmethod
    def select(self, nodes: Sequence[Node]) -> List[Core]:
        """Return one core per rank, in rank order.

        Implementations must only return currently-free cores.
        """


class PerSocketPlacement(Placement):
    """``ranks_per_socket`` ranks on every socket of the first ``node_count``
    nodes — the paper's layout for both probes and applications.

    Rank order is node-major then socket-major, matching the paper's
    "my_rank + tasks_per_node" neighbour arithmetic.
    """

    def __init__(self, ranks_per_socket: int, node_count: Optional[int] = None) -> None:
        if ranks_per_socket < 1:
            raise ConfigurationError(
                f"ranks_per_socket must be >= 1, got {ranks_per_socket}"
            )
        if node_count is not None and node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {node_count}")
        self.ranks_per_socket = ranks_per_socket
        self.node_count = node_count

    def select(self, nodes: Sequence[Node]) -> List[Core]:
        count = self.node_count if self.node_count is not None else len(nodes)
        if count > len(nodes):
            raise ConfigurationError(
                f"placement wants {count} nodes but machine has {len(nodes)}"
            )
        chosen: List[Core] = []
        for node in nodes[:count]:
            for socket in range(node.config.sockets):
                free = node.free_cores_on_socket(socket)
                if len(free) < self.ranks_per_socket:
                    raise ConfigurationError(
                        f"node {node.node_id} socket {socket} has {len(free)} free "
                        f"cores, need {self.ranks_per_socket}"
                    )
                chosen.extend(free[: self.ranks_per_socket])
        return chosen


class BlockPlacement(Placement):
    """Fill nodes one at a time with ``total_ranks`` ranks."""

    def __init__(self, total_ranks: int) -> None:
        if total_ranks < 1:
            raise ConfigurationError(f"total_ranks must be >= 1, got {total_ranks}")
        self.total_ranks = total_ranks

    def select(self, nodes: Sequence[Node]) -> List[Core]:
        chosen: List[Core] = []
        for node in nodes:
            for core in node.free_cores:
                chosen.append(core)
                if len(chosen) == self.total_ranks:
                    return chosen
        raise ConfigurationError(
            f"only {len(chosen)} free cores available for {self.total_ranks} ranks"
        )


class RoundRobinPlacement(Placement):
    """Deal ``total_ranks`` ranks across nodes one core at a time."""

    def __init__(self, total_ranks: int) -> None:
        if total_ranks < 1:
            raise ConfigurationError(f"total_ranks must be >= 1, got {total_ranks}")
        self.total_ranks = total_ranks

    def select(self, nodes: Sequence[Node]) -> List[Core]:
        pools = [node.free_cores for node in nodes]
        chosen: List[Core] = []
        depth = 0
        while len(chosen) < self.total_ranks:
            progressed = False
            for pool in pools:
                if depth < len(pool):
                    chosen.append(pool[depth])
                    progressed = True
                    if len(chosen) == self.total_ranks:
                        return chosen
            if not progressed:
                raise ConfigurationError(
                    f"only {len(chosen)} free cores available for {self.total_ranks} ranks"
                )
            depth += 1
        return chosen


class ExplicitPlacement(Placement):
    """A literal list of cores (rank i on cores[i])."""

    def __init__(self, cores: Sequence[Core]) -> None:
        if not cores:
            raise ConfigurationError("ExplicitPlacement needs at least one core")
        self.cores = list(cores)

    def select(self, nodes: Sequence[Node]) -> List[Core]:
        by_id = {node.node_id: node for node in nodes}
        for core in self.cores:
            node = by_id.get(core.node_id)
            if node is None:
                raise ConfigurationError(f"core {core} names unknown node {core.node_id}")
            if node.occupant(core) is not None:
                raise ConfigurationError(f"core {core} is already occupied")
        return list(self.cores)
