"""The scenario/demand seam: topology + traffic matrix → per-link demand.

Every engine needs the same three facts about a campaign scenario before it
can answer a descriptor: what the fabric looks like (topology + fault
rules), where each workload's offered load goes (a node×node demand
matrix), and how that demand folds onto switches and directed inter-switch
links under ECMP routing.  Before this module those facts were derived
ad hoc — the analytic engine collapsed :class:`~repro.config.MachineConfig`
itself, topology checks were duplicated between engines and config
validation, and no engine could split an aggregate
:class:`~repro.workloads.traffic.TrafficSummary` across links at all.

:class:`ScenarioSpec` centralizes them:

* **Demand matrices** (:class:`DemandMatrix`) distribute a workload's
  per-round packet/byte totals over ordered node pairs using the
  workload's declared pair weights (see ``Workload.demand_weights``).
  Row sums are the per-node offered traffic, the grand total is exactly
  the summary's total — conservation is a hypothesis-tested invariant.
* **Folding** maps a demand matrix onto per-switch and per-directed-link
  loads using :meth:`~repro.network.topology.Topology.equal_cost_routes`,
  the same enumeration ECMP flow hashing draws from, so flow-level engines
  and the packet engine agree on routing.  A closed-form fast path covers
  leaf-spine fabrics; :meth:`ScenarioSpec.fold_reference` is the
  route-by-route definition the fast path is property-tested against.

Everything here is deterministic and engine-agnostic: the fluid engine
solves fixed points over these loads, the capability layer reads the
scenario facts, and future planners can consume the same seam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from .errors import ConfigurationError
from .network.topology import LeafSpineTopology, SingleSwitchTopology, Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import MachineConfig
    from .workloads.traffic import TrafficSummary

__all__ = [
    "DemandMatrix",
    "ResourceDemand",
    "ScenarioSpec",
    "uniform_node_weights",
    "paired_node_weights",
    "ring_node_weights",
]


# ----------------------------------------------------------------------
# Pair-weight builders (the workload side of the seam)
# ----------------------------------------------------------------------
def uniform_node_weights(node_count: int) -> np.ndarray:
    """Uniform weights over all ordered internode pairs (zero diagonal).

    The default communication structure: applications whose summaries are
    built on :func:`~repro.workloads.traffic.internode_fraction` spread
    their switch-traversing traffic evenly over peers, which at node
    granularity is exactly this matrix.
    """
    if node_count < 1:
        raise ConfigurationError(f"node_count must be >= 1, got {node_count}")
    if node_count == 1:
        return np.zeros((1, 1))
    weights = np.full((node_count, node_count), 1.0 / (node_count * (node_count - 1)))
    np.fill_diagonal(weights, 0.0)
    return weights


def paired_node_weights(node_count: int) -> np.ndarray:
    """Adjacent-node pair weights: node ``2i`` ↔ node ``2i+1``.

    The probe's structure (paper Fig. 2): even-position nodes ping the next
    node and get a pong back, so each of the ``⌊n/2⌋`` pairs carries equal
    traffic in both directions.  The last node of an odd-sized machine is
    unpaired and offers nothing.
    """
    if node_count < 1:
        raise ConfigurationError(f"node_count must be >= 1, got {node_count}")
    weights = np.zeros((node_count, node_count))
    pairs = node_count // 2
    if pairs == 0:
        return weights
    share = 1.0 / (2 * pairs)
    for i in range(pairs):
        weights[2 * i, 2 * i + 1] = share
        weights[2 * i + 1, 2 * i] = share
    return weights


def ring_node_weights(node_count: int, partners: int) -> np.ndarray:
    """Ring weights: each node sends to its ``partners`` ring predecessors.

    CompressionB's structure (§III-B): ranks with the same local index form
    a ring over the node order, and each sends equally to its 1..P nearest
    predecessors (receives come from successors — those are the
    predecessors' sends, so the matrix already contains them).
    """
    if node_count < 1:
        raise ConfigurationError(f"node_count must be >= 1, got {node_count}")
    weights = np.zeros((node_count, node_count))
    partners = min(partners, node_count - 1)
    if partners < 1:
        return weights
    share = 1.0 / (node_count * partners)
    for offset in range(1, partners + 1):
        for src in range(node_count):
            weights[src, (src - offset) % node_count] += share
    return weights


# ----------------------------------------------------------------------
# Demand containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DemandMatrix:
    """One workload's per-round offered load over ordered node pairs.

    ``bytes_[i, j]`` / ``packets[i, j]`` are the switch-traversing bytes and
    packets node ``i`` sends node ``j`` per workload round.  The diagonal is
    zero (intra-node traffic takes the shared-memory path) and the grand
    totals equal the workload's :class:`TrafficSummary` figures exactly.
    """

    bytes_: np.ndarray
    packets: np.ndarray

    def __post_init__(self) -> None:
        if self.bytes_.shape != self.packets.shape or self.bytes_.ndim != 2:
            raise ConfigurationError("demand matrices must share one (n, n) shape")
        if self.bytes_.shape[0] != self.bytes_.shape[1]:
            raise ConfigurationError("demand matrices must be square")

    @property
    def node_count(self) -> int:
        return self.bytes_.shape[0]

    @property
    def total_bytes(self) -> float:
        return float(self.bytes_.sum())

    @property
    def total_packets(self) -> float:
        return float(self.packets.sum())


@dataclass(frozen=True)
class ResourceDemand:
    """A demand matrix folded onto the fabric's switches and links.

    Per-switch figures count every traversal (a cross-leaf packet loads its
    source leaf, one spine, and its destination leaf); ``delivered_packets``
    counts only the final endpoint-delivery hop, which is where a packet
    queues behind the destination port.  Link figures are per directed
    inter-switch link, keyed by the topology's link names.
    """

    switch_bytes: np.ndarray
    switch_packets: np.ndarray
    delivered_packets: np.ndarray
    link_bytes: Dict[str, float]
    link_packets: Dict[str, float]
    total_bytes: float
    total_packets: float

    def switch_visits_per_packet(self) -> float:
        """Mean switch hops one packet makes (1 on a single switch)."""
        if self.total_packets <= 0:
            return 1.0
        return float(self.switch_packets.sum()) / self.total_packets

    def link_traversals_per_packet(self) -> float:
        """Mean inter-switch links one packet crosses (0 on a single switch)."""
        if self.total_packets <= 0:
            return 0.0
        return float(sum(self.link_packets.values())) / self.total_packets


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
class ScenarioSpec:
    """Everything engines share about one campaign scenario.

    Built once per descriptor from the :class:`MachineConfig`; exposes the
    topology, the scenario facts capability dispatch reads (kind, node
    count, active fault kinds), and the demand machinery documented in the
    module docstring.
    """

    def __init__(self, config: "MachineConfig") -> None:
        self.config = config
        self.topology: Topology = config.topology.build(config.node_count)
        self.node_count = config.node_count
        self.kind = config.topology.kind
        self.fault_kinds: Tuple[str, ...] = config.network.active_fault_kinds()
        self._link_names = {
            (src, dst): name for name, src, dst in self.topology.links()
        }

    @classmethod
    def from_machine(cls, config: "MachineConfig") -> "ScenarioSpec":
        return cls(config)

    @property
    def switch_count(self) -> int:
        return self.topology.switch_count

    def link_names(self) -> Tuple[str, ...]:
        """Directed inter-switch link names, sorted for determinism."""
        return tuple(sorted(self._link_names.values()))

    def switch_ports(self) -> np.ndarray:
        """Ports each switch's busy time spreads across (ρ denominators).

        Leaf (and single) switches use their attached endpoint count —
        matching the simulator's ground-truth
        :meth:`~repro.network.switch.OutputQueuedSwitch.utilization`
        denominator; spines use their leaf-facing port count.
        """
        topology = self.topology
        if isinstance(topology, LeafSpineTopology):
            ports = np.empty(topology.switch_count)
            ports[: topology.leaf_count] = topology.nodes_per_leaf
            ports[topology.leaf_count :] = topology.leaf_count
            return ports
        return np.full(topology.switch_count, float(self.node_count))

    # ------------------------------------------------------------------
    # Demand
    # ------------------------------------------------------------------
    def demand_matrix(
        self, summary: "TrafficSummary", weights: np.ndarray
    ) -> DemandMatrix:
        """Distribute a traffic summary's totals over the pair weights."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.node_count, self.node_count):
            raise ConfigurationError(
                f"pair weights must be {self.node_count}x{self.node_count}, "
                f"got {weights.shape}"
            )
        if np.any(weights < 0) or np.any(np.diag(weights) != 0):
            raise ConfigurationError(
                "pair weights must be non-negative with a zero diagonal"
            )
        total = float(weights.sum())
        if total <= 0.0:
            if summary.packets > 0 or summary.bytes > 0:
                raise ConfigurationError(
                    "workload offers switch traffic but its pair weights are "
                    "all zero — the demand matrix cannot conserve it"
                )
            zero = np.zeros_like(weights)
            return DemandMatrix(bytes_=zero, packets=zero.copy())
        normalized = weights / total
        return DemandMatrix(
            bytes_=normalized * summary.bytes, packets=normalized * summary.packets
        )

    def fold(self, matrix: DemandMatrix) -> ResourceDemand:
        """Fold a demand matrix onto switches and directed links.

        Leaf-spine fabrics take a closed-form path (block sums over leaves,
        cross-leaf demand split 1/S per spine — the long-run ECMP split).
        A single switch takes the same path as one leaf holding every node
        with no spines, so it folds bit-identically to the one-leaf fabric.
        Anything else walks :meth:`Topology.equal_cost_routes` pair by pair.
        :meth:`fold_reference` always walks routes, and the two are
        property-tested to agree.
        """
        if matrix.node_count != self.node_count:
            raise ConfigurationError(
                f"demand matrix is {matrix.node_count} nodes, "
                f"scenario has {self.node_count}"
            )
        topology = self.topology
        if isinstance(topology, LeafSpineTopology):
            return self._fold_blocks(
                matrix,
                topology.leaf_count,
                topology.nodes_per_leaf,
                topology.spine_count,
            )
        if isinstance(topology, SingleSwitchTopology):
            return self._fold_blocks(matrix, 1, self.node_count, 0)
        return self.fold_reference(matrix)

    def _fold_blocks(
        self, matrix: DemandMatrix, leaves: int, npl: int, spines: int
    ) -> ResourceDemand:
        # Node attachment is contiguous (node // nodes_per_leaf), so the
        # leaf×leaf aggregate is a block sum.
        leaf_bytes = matrix.bytes_.reshape(leaves, npl, leaves, npl).sum(axis=(1, 3))
        leaf_packets = matrix.packets.reshape(leaves, npl, leaves, npl).sum(axis=(1, 3))

        switch_bytes = np.zeros(leaves + spines)
        switch_packets = np.zeros(leaves + spines)
        delivered = np.zeros(leaves + spines)
        row_b, col_b = leaf_bytes.sum(axis=1), leaf_bytes.sum(axis=0)
        row_p, col_p = leaf_packets.sum(axis=1), leaf_packets.sum(axis=0)
        diag_b, diag_p = np.diag(leaf_bytes), np.diag(leaf_packets)
        # A cross-leaf packet visits its source and destination leaves; an
        # intra-leaf packet appears in both the row and column sum but
        # visits its leaf once.
        switch_bytes[:leaves] = row_b + col_b - diag_b
        switch_packets[:leaves] = row_p + col_p - diag_p
        delivered[:leaves] = col_p

        link_bytes: Dict[str, float] = {}
        link_packets: Dict[str, float] = {}
        if spines:
            cross_b = float(leaf_bytes.sum() - diag_b.sum())
            cross_p = float(leaf_packets.sum() - diag_p.sum())
            switch_bytes[leaves:] = cross_b / spines
            switch_packets[leaves:] = cross_p / spines
            up_b, up_p = (row_b - diag_b) / spines, (row_p - diag_p) / spines
            down_b, down_p = (col_b - diag_b) / spines, (col_p - diag_p) / spines
            for leaf in range(leaves):
                for spine in range(spines):
                    link_bytes[f"leaf{leaf}->spine{spine}"] = float(up_b[leaf])
                    link_packets[f"leaf{leaf}->spine{spine}"] = float(up_p[leaf])
                    link_bytes[f"spine{spine}->leaf{leaf}"] = float(down_b[leaf])
                    link_packets[f"spine{spine}->leaf{leaf}"] = float(down_p[leaf])
        return ResourceDemand(
            switch_bytes=switch_bytes,
            switch_packets=switch_packets,
            delivered_packets=delivered,
            link_bytes=link_bytes,
            link_packets=link_packets,
            total_bytes=matrix.total_bytes,
            total_packets=matrix.total_packets,
        )

    def fold_reference(self, matrix: DemandMatrix) -> ResourceDemand:
        """Route-by-route folding over ``equal_cost_routes`` (the definition).

        O(n²·routes) — use :meth:`fold` in production; this exists as the
        oracle the block-sum fast path (leaf-spine fabrics and the single
        switch) is verified against, and as the fallback for custom
        topologies without a closed form.
        """
        topology = self.topology
        switch_bytes = np.zeros(topology.switch_count)
        switch_packets = np.zeros(topology.switch_count)
        delivered = np.zeros(topology.switch_count)
        link_bytes = {name: 0.0 for name in self._link_names.values()}
        link_packets = {name: 0.0 for name in self._link_names.values()}
        for src in range(self.node_count):
            for dst in range(self.node_count):
                if src == dst:
                    continue
                nbytes = float(matrix.bytes_[src, dst])
                npackets = float(matrix.packets[src, dst])
                if nbytes == 0.0 and npackets == 0.0:
                    continue
                routes = topology.equal_cost_routes(src, dst)
                share = 1.0 / len(routes)
                for route in routes:
                    for hop, switch in enumerate(route):
                        switch_bytes[switch] += nbytes * share
                        switch_packets[switch] += npackets * share
                        if hop + 1 < len(route):
                            name = self._link_names[(switch, route[hop + 1])]
                            link_bytes[name] += nbytes * share
                            link_packets[name] += npackets * share
                    delivered[route[-1]] += npackets * share
        return ResourceDemand(
            switch_bytes=switch_bytes,
            switch_packets=switch_packets,
            delivered_packets=delivered,
            link_bytes=link_bytes,
            link_packets=link_packets,
            total_bytes=matrix.total_bytes,
            total_packets=matrix.total_packets,
        )

    # ------------------------------------------------------------------
    # Probe geometry
    # ------------------------------------------------------------------
    def probe_pair_paths(self) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """(count, route) groups for the probe's adjacent-node pairs.

        The probe pairs node positions ``2i`` ↔ ``2i+1``; pairs attached to
        one leaf see a single-hop path while pairs straddling a leaf
        boundary (odd ``nodes_per_leaf``) cross a spine.  Routes are grouped
        by shape so engines iterate a handful of groups, not n/2 pairs; the
        spine id in a cross-leaf route is representative (under the uniform
        ECMP split every spine carries the same load, hence the same delay).
        """
        groups: Dict[Tuple[int, ...], int] = {}
        for i in range(self.node_count // 2):
            route = self.topology.route(2 * i, 2 * i + 1)
            groups[route] = groups.get(route, 0) + 1
        return tuple((count, route) for route, count in sorted(groups.items()))
