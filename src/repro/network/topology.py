"""Network topologies: node→switch attachment and route computation.

The paper's experiments use the bottom level of a two-level fat tree: 18
nodes per QLogic 12300 leaf switch.  :class:`SingleSwitchTopology` is that
configuration; :class:`LeafSpineTopology` models the full two-level
leaf–spine fabric (routes crossing leaf switches traverse leaf → spine →
leaf, with the spine chosen by ECMP-style flow hashing).
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Tuple

from ..errors import ConfigurationError

__all__ = [
    "Topology",
    "SingleSwitchTopology",
    "LeafSpineTopology",
    "route_node_list",
]


class Topology:
    """Abstract topology: maps nodes to switches and computes switch routes.

    Switches are identified by contiguous ids ``0..switch_count-1``; routes
    are tuples of switch ids a packet traverses in order.
    """

    @property
    def node_count(self) -> int:
        raise NotImplementedError

    @property
    def switch_count(self) -> int:
        raise NotImplementedError

    def attachment(self, node_id: int) -> int:
        """The switch a node's uplink connects to."""
        raise NotImplementedError

    def route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        """Ordered switch ids between two **distinct** endpoint nodes."""
        raise NotImplementedError

    def route_flow(
        self, src_node: int, dst_node: int, flow: Any = None
    ) -> Tuple[int, ...]:
        """Route for one flow between two distinct nodes.

        Topologies with path diversity (ECMP) override this so different
        flows of the same node pair can take different equal-cost paths;
        the default ignores ``flow`` and delegates to :meth:`route`.
        """
        return self.route(src_node, dst_node)

    def equal_cost_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[int, ...], ...]:
        """Every route ECMP flow hashing can assign to this node pair.

        This is the demand-side export of the routing function: flow-level
        engines split a pair's offered load evenly across these routes, which
        is exactly the long-run split :meth:`route_flow`'s uniform flow hash
        produces.  The default (no path diversity) is the single route.
        """
        return (self.route(src_node, dst_node),)

    def links(self) -> Tuple[Tuple[str, int, int], ...]:
        """Directed inter-switch links as ``(name, src_switch, dst_switch)``.

        Single-switch topologies have none; fabrics enumerate every cabled
        direction (a full-duplex cable is two directed links, so a fault on
        one direction never implies a fault on the other).
        """
        return ()

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.node_count:
            raise ConfigurationError(
                f"node {node_id} out of range [0, {self.node_count})"
            )

    def _check_pair(self, src_node: int, dst_node: int) -> None:
        self._check_node(src_node)
        self._check_node(dst_node)
        if src_node == dst_node:
            raise ConfigurationError(
                f"route needs distinct endpoints, got src == dst == {src_node} "
                "(intra-node traffic never enters the fabric)"
            )


class SingleSwitchTopology(Topology):
    """All nodes on one switch (the paper's experimental configuration)."""

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {node_count}")
        self._node_count = node_count

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def switch_count(self) -> int:
        return 1

    def attachment(self, node_id: int) -> int:
        self._check_node(node_id)
        return 0

    def route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        self._check_pair(src_node, dst_node)
        return (0,)


class LeafSpineTopology(Topology):
    """A two-level leaf–spine fabric: L leaves × N nodes each, S spines.

    Switch ids: leaves are ``0..leaf_count-1``; spines follow.  Traffic
    between nodes on the same leaf stays on that leaf; otherwise it goes
    leaf → spine → leaf, with the spine chosen per *flow* by a seeded
    deterministic hash of ``(src, dst, flow)`` — ECMP-style flow hashing.
    A flow therefore always takes the same path (no reordering), while
    distinct flows spread near-uniformly across the spines.

    Args:
        leaf_count: number of leaf switches.
        nodes_per_leaf: compute nodes attached to each leaf.
        spine_count: number of spine switches.
        ecmp_seed: seed folded into the flow hash (re-rolling it re-deals
            flows onto spines without touching any other randomness).
    """

    def __init__(
        self,
        leaf_count: int,
        nodes_per_leaf: int,
        spine_count: int = 1,
        ecmp_seed: int = 0,
    ) -> None:
        if leaf_count < 1:
            raise ConfigurationError(
                f"leaf_count must be >= 1, got {leaf_count}"
            )
        if nodes_per_leaf < 1:
            raise ConfigurationError(
                f"nodes_per_leaf must be >= 1, got {nodes_per_leaf}"
            )
        if spine_count < 1:
            raise ConfigurationError(
                f"spine_count must be >= 1, got {spine_count}"
            )
        self.leaf_count = leaf_count
        self.nodes_per_leaf = nodes_per_leaf
        self.spine_count = spine_count
        self.ecmp_seed = ecmp_seed

    @property
    def node_count(self) -> int:
        return self.leaf_count * self.nodes_per_leaf

    @property
    def switch_count(self) -> int:
        return self.leaf_count + self.spine_count

    def attachment(self, node_id: int) -> int:
        self._check_node(node_id)
        return node_id // self.nodes_per_leaf

    def switch_name(self, switch_id: int) -> str:
        """Human-readable switch label (``leaf0`` … / ``spine0`` …)."""
        if switch_id < self.leaf_count:
            return f"leaf{switch_id}"
        return f"spine{switch_id - self.leaf_count}"

    def spine_for(self, src_node: int, dst_node: int, flow: Any = None) -> int:
        """ECMP spine choice for one flow: a seeded stable hash.

        The hash is a pure function of ``(ecmp_seed, src, dst, flow)`` —
        independent of construction order, process hash randomization, and
        anything else in the run — so a flow's path is bit-reproducible
        across re-runs and catalog permutations.
        """
        key = f"{self.ecmp_seed}|{src_node}|{dst_node}|{flow!r}"
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return self.leaf_count + int.from_bytes(digest, "little") % self.spine_count

    def route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        return self.route_flow(src_node, dst_node, None)

    def route_flow(
        self, src_node: int, dst_node: int, flow: Any = None
    ) -> Tuple[int, ...]:
        self._check_pair(src_node, dst_node)
        src_leaf = self.attachment(src_node)
        dst_leaf = self.attachment(dst_node)
        if src_leaf == dst_leaf:
            return (src_leaf,)
        return (src_leaf, self.spine_for(src_node, dst_node, flow), dst_leaf)

    def equal_cost_routes(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[int, ...], ...]:
        """Same-leaf pairs have one route; cross-leaf pairs one per spine.

        :meth:`spine_for` hashes flows near-uniformly onto spines, so the
        long-run demand split across these routes is even — engines that
        consume this enumeration agree with the packet engine's routing.
        """
        self._check_pair(src_node, dst_node)
        src_leaf = self.attachment(src_node)
        dst_leaf = self.attachment(dst_node)
        if src_leaf == dst_leaf:
            return ((src_leaf,),)
        return tuple(
            (src_leaf, self.leaf_count + spine, dst_leaf)
            for spine in range(self.spine_count)
        )

    def links(self) -> Tuple[Tuple[str, int, int], ...]:
        """Every leaf is cabled to every spine, both directions."""
        out: List[Tuple[str, int, int]] = []
        for leaf in range(self.leaf_count):
            for spine_index in range(self.spine_count):
                spine = self.leaf_count + spine_index
                out.append((f"leaf{leaf}->spine{spine_index}", leaf, spine))
                out.append((f"spine{spine_index}->leaf{leaf}", spine, leaf))
        return tuple(out)


def route_node_list(topology: Topology, src_node: int, dst_node: int) -> List[int]:
    """Convenience wrapper returning the route as a list (for display).

    Delegates to :meth:`Topology.route`, so it raises on ``src == dst``
    exactly like the method it wraps.
    """
    return list(topology.route(src_node, dst_node))
