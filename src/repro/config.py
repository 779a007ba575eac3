"""Configuration dataclasses for machines, networks, and experiment scaling.

A :class:`MachineConfig` fully determines a simulated cluster; the default
values mirror LLNL's Cab as described in the paper's §II (18 dual-socket
8-core/socket 2.6 GHz nodes on one QLogic 12300 leaf switch, ~1 µs latency,
5 GB/s links).
"""

from __future__ import annotations

import fnmatch
import hashlib
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Tuple

from .errors import ConfigurationError
from .network.service_time import (
    ServiceTimeModel,
    default_fabric_service,
    default_port_overhead,
)
from .network.topology import LeafSpineTopology, SingleSwitchTopology, Topology
from .units import GB, GHZ, KB, US

__all__ = [
    "LinkFaultConfig",
    "TopologyConfig",
    "NetworkConfig",
    "NodeConfig",
    "MachineConfig",
    "Scale",
    "scenario_tag",
]


#: The numeric fields of a :class:`LinkFaultConfig`.
_LINK_FAULT_NUMBERS = ("drop_probability", "corrupt_probability", "speed_factor")


def _finite(value: object, name: str) -> float:
    """``value`` as a finite float; ConfigurationError for anything else."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ConfigurationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LinkFaultConfig:
    """Fault behaviour for the inter-switch links matching ``link``.

    One rule describes one failure mode (or a combination) applied to every
    directed fabric link whose name matches the ``link`` pattern.  Rules are
    matched first-wins in declaration order, so a specific pattern
    (``"leaf0->spine0"``) placed before a broad one (``"*->spine0"``) takes
    precedence.  All randomness is drawn from a per-link named stream, so a
    scenario replays bit-for-bit under the same machine seed.

    Attributes:
        link: :mod:`fnmatch` pattern over directed link names
            (``leaf0->spine1``, ``spine1->leaf0``, …).
        drop_probability: probability a packet is silently lost on the wire
            (recovered by timeout-based retransmit at the NIC layer).
        corrupt_probability: probability a packet is delivered poisoned
            (CRC failure at the receiving NIC triggers an immediate
            retransmit — the LinkGuardian-style corruption mode).
        speed_factor: multiplier on the link's drain rate; values < 1 model
            a degraded link that serializes packets FIFO at the reduced
            rate (values ≥ 1 leave serialization to the upstream port).
        down: flap windows as ``((start, end), ...)`` in simulated seconds;
            the link delivers nothing inside a window (packets in flight or
            transmitted during it are lost and retransmitted later).
    """

    link: str = "*"
    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    speed_factor: float = 1.0
    down: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.link, str) or not self.link:
            raise ConfigurationError("link pattern must be a non-empty string")
        for name in _LINK_FAULT_NUMBERS:
            _finite(getattr(self, name), name)
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigurationError(
                f"drop_probability must be in [0, 1), got {self.drop_probability}"
            )
        if not 0.0 <= self.corrupt_probability < 1.0:
            raise ConfigurationError(
                f"corrupt_probability must be in [0, 1), got {self.corrupt_probability}"
            )
        if self.drop_probability + self.corrupt_probability >= 1.0:
            raise ConfigurationError(
                "drop_probability + corrupt_probability must be < 1"
            )
        if self.speed_factor <= 0:
            raise ConfigurationError(
                f"speed_factor must be positive, got {self.speed_factor}"
            )
        if not isinstance(self.down, (list, tuple)):
            raise ConfigurationError("down must be a list of [start, end] windows")
        windows = []
        for window in self.down:
            if not isinstance(window, (list, tuple)) or len(window) != 2:
                raise ConfigurationError("down window must be a [start, end] pair")
            start, end = (_finite(bound, "down window bound") for bound in window)
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"down window must satisfy 0 <= start < end, got ({start}, {end})"
                )
            windows.append((start, end))
        object.__setattr__(self, "down", tuple(windows))

    def matches(self, link_name: str) -> bool:
        return fnmatch.fnmatchcase(link_name, self.link)

    @property
    def is_noop(self) -> bool:
        """True when this rule changes nothing about a link's behaviour."""
        return (
            self.drop_probability == 0.0
            and self.corrupt_probability == 0.0
            and self.speed_factor >= 1.0
            and not self.down
        )

    def to_dict(self) -> dict:
        return {
            "link": self.link,
            "drop_probability": self.drop_probability,
            "corrupt_probability": self.corrupt_probability,
            "speed_factor": self.speed_factor,
            "down": [list(window) for window in self.down],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkFaultConfig":
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a link-fault rule must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"unknown link-fault field(s): {', '.join(map(repr, sorted(unknown)))}"
            )
        # JSON integers become floats, as the dataclass defaults are, so a
        # rule's scenario tag does not depend on how a number was spelled.
        given = {name: _finite(data[name], name) for name in _LINK_FAULT_NUMBERS if name in data}
        return cls(link=data.get("link", "*"), down=data.get("down", ()), **given)


@dataclass(frozen=True)
class TopologyConfig:
    """Declarative fabric layout carried by :class:`MachineConfig`.

    Attributes:
        kind: ``"single"`` (the paper's one-leaf-switch platform) or
            ``"leaf-spine"`` (2-level fabric with ECMP flow hashing).
        leaf_count / nodes_per_leaf / spine_count: leaf-spine shape
            (ignored for ``"single"``).
        ecmp_seed: seed folded into the ECMP flow hash.
    """

    kind: str = "single"
    leaf_count: int = 2
    nodes_per_leaf: int = 9
    spine_count: int = 2
    ecmp_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("single", "leaf-spine"):
            raise ConfigurationError(
                f"topology kind must be 'single' or 'leaf-spine', got {self.kind!r}"
            )
        if min(self.leaf_count, self.nodes_per_leaf, self.spine_count) < 1:
            raise ConfigurationError(
                "leaf_count, nodes_per_leaf, and spine_count must all be >= 1"
            )

    def build(self, node_count: int) -> Topology:
        """Instantiate the topology for a machine of ``node_count`` nodes."""
        if self.kind == "single":
            return SingleSwitchTopology(node_count)
        if self.leaf_count * self.nodes_per_leaf != node_count:
            raise ConfigurationError(
                f"leaf-spine {self.leaf_count}x{self.nodes_per_leaf} holds "
                f"{self.leaf_count * self.nodes_per_leaf} nodes, "
                f"but the machine has {node_count}"
            )
        return LeafSpineTopology(
            leaf_count=self.leaf_count,
            nodes_per_leaf=self.nodes_per_leaf,
            spine_count=self.spine_count,
            ecmp_seed=self.ecmp_seed,
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Interconnect parameters.

    Attributes:
        link_bandwidth: node uplink rate in bytes/s (Cab: ~5 GB/s).
        link_latency: one-way wire propagation in seconds.
        egress_latency: switch-to-destination fixed delay in seconds.
        mtu: maximum packet payload in bytes ("few KB" per the paper).
        nic_overhead: fixed per-packet injection overhead in seconds.
        switch_mode: ``"output_queued"`` (default: per-output-port queues,
            the experimental substrate) or ``"central"`` (one shared queue,
            the paper's literal M/G/1 abstraction, used in ablations).
        port_overhead: per-packet routing-overhead distribution for
            output-queued switches.
        fabric_service: service-time distribution for central-mode switches.
        fabric_servers: parallel servers in central mode (1 = M/G/1 view).
        link_faults: per-link fault rules applied to inter-switch links
            (first matching rule wins; empty = a healthy fabric).
        retransmit_timeout: NIC-layer retransmit timer for packets lost on
            a faulty link (corrupted packets retransmit immediately on the
            receiver's CRC failure instead).
    """

    link_bandwidth: float = 5.0 * GB
    link_latency: float = 0.1 * US
    egress_latency: float = 0.25 * US
    mtu: int = 8 * KB
    nic_overhead: float = 0.15 * US
    switch_mode: str = "output_queued"
    port_overhead: ServiceTimeModel = field(default_factory=default_port_overhead)
    fabric_service: ServiceTimeModel = field(default_factory=default_fabric_service)
    fabric_servers: int = 1
    local_bandwidth: float = 12.0 * GB
    local_latency: float = 0.4 * US
    link_faults: Tuple[LinkFaultConfig, ...] = ()
    retransmit_timeout: float = 20.0 * US

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0 or self.local_bandwidth <= 0:
            raise ConfigurationError("bandwidths must be positive")
        if min(self.link_latency, self.egress_latency, self.nic_overhead, self.local_latency) < 0:
            raise ConfigurationError("latencies and overheads must be non-negative")
        if self.mtu <= 0:
            raise ConfigurationError(f"mtu must be positive, got {self.mtu}")
        if self.switch_mode not in ("output_queued", "central"):
            raise ConfigurationError(
                f"switch_mode must be 'output_queued' or 'central', got {self.switch_mode!r}"
            )
        if self.fabric_servers < 1:
            raise ConfigurationError(f"fabric_servers must be >= 1, got {self.fabric_servers}")
        object.__setattr__(self, "link_faults", tuple(self.link_faults))
        for rule in self.link_faults:
            if not isinstance(rule, LinkFaultConfig):
                raise ConfigurationError(
                    f"link_faults entries must be LinkFaultConfig, got {type(rule).__name__}"
                )
        if self.retransmit_timeout < 0:
            raise ConfigurationError(
                f"retransmit_timeout must be >= 0, got {self.retransmit_timeout}"
            )

    def active_fault_kinds(self) -> Tuple[str, ...]:
        """Sorted fault kinds at least one non-noop rule exercises.

        Kinds are ``"corrupt"``, ``"drop"``, ``"flap"``, ``"speed"`` — the
        vocabulary engine capability declarations are matched against.
        """
        kinds = set()
        for rule in self.link_faults:
            if rule.is_noop:
                continue
            if rule.drop_probability > 0.0:
                kinds.add("drop")
            if rule.corrupt_probability > 0.0:
                kinds.add("corrupt")
            if rule.speed_factor < 1.0:
                kinds.add("speed")
            if rule.down:
                kinds.add("flap")
        return tuple(sorted(kinds))


@dataclass(frozen=True)
class NodeConfig:
    """Compute-node parameters (Cab: 2 sockets × 8 cores at 2.6 GHz)."""

    sockets: int = 2
    cores_per_socket: int = 8
    clock_hz: float = 2.6 * GHZ

    def __post_init__(self) -> None:
        if self.sockets < 1 or self.cores_per_socket < 1:
            raise ConfigurationError("nodes need at least one socket and one core")
        if self.clock_hz <= 0:
            raise ConfigurationError(f"clock_hz must be positive, got {self.clock_hz}")

    @property
    def cores(self) -> int:
        """Total cores per node."""
        return self.sockets * self.cores_per_socket


@dataclass(frozen=True)
class MachineConfig:
    """A whole cluster: nodes + interconnect + fabric layout + root RNG seed."""

    node_count: int = 18
    node: NodeConfig = field(default_factory=NodeConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {self.node_count}")
        if (
            self.topology.kind == "leaf-spine"
            and self.topology.leaf_count * self.topology.nodes_per_leaf
            != self.node_count
        ):
            raise ConfigurationError(
                f"leaf-spine {self.topology.leaf_count}x"
                f"{self.topology.nodes_per_leaf} holds "
                f"{self.topology.leaf_count * self.topology.nodes_per_leaf} nodes, "
                f"but node_count is {self.node_count}"
            )
        if self.network.link_faults and self.topology.kind == "single":
            raise ConfigurationError(
                "link_faults need a multi-switch topology: a single-switch "
                "machine has no inter-switch links to degrade"
            )

    @property
    def total_cores(self) -> int:
        return self.node_count * self.node.cores

    def with_seed(self, seed: int) -> "MachineConfig":
        """A copy of this config with a different RNG seed."""
        return replace(self, seed=seed)


def scenario_tag(config: MachineConfig) -> "str | None":
    """A short, deterministic tag naming a non-default fabric scenario.

    Returns ``None`` for the paper's default single-switch healthy fabric —
    so default cache keys (and every cache written before fabrics existed)
    are unchanged — and a compact tag like ``ls2x9s2-f3a1c9d0`` otherwise.
    The fault digest is a stable hash of the fault rules, so two configs
    share a tag exactly when their scenarios are interchangeable.
    """
    topo = config.topology
    faults = config.network.link_faults
    if topo.kind == "single" and not faults:
        return None
    parts = [f"ls{topo.leaf_count}x{topo.nodes_per_leaf}s{topo.spine_count}"]
    if topo.ecmp_seed:
        parts.append(f"e{topo.ecmp_seed}")
    if faults:
        canon = repr([rule.to_dict() for rule in faults]).encode("utf-8")
        parts.append("f" + hashlib.blake2b(canon, digest_size=4).hexdigest())
    return "-".join(parts)


@dataclass(frozen=True)
class Scale:
    """Maps paper-scale durations to tractable simulated durations.

    The paper's runs last minutes of wall time with 100 ms probe sleeps; a
    pure-Python DES cannot afford that, and does not need to: every reported
    quantity is a ratio (slowdown %, utilization %) or a distribution, all of
    which are invariant when every period shrinks by the same factor.

    Attributes:
        time_factor: multiplier applied to sleep/period parameters
            (e.g. 0.01 turns the paper's 100 ms probe gap into 1 ms).
        work_factor: multiplier applied to application iteration counts.
    """

    time_factor: float = 0.01
    work_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.time_factor <= 0 or self.work_factor <= 0:
            raise ConfigurationError("scale factors must be positive")

    def period(self, paper_seconds: float) -> float:
        """Scale a paper-reported period/sleep down to simulated seconds."""
        if paper_seconds < 0:
            raise ConfigurationError(f"period must be non-negative, got {paper_seconds}")
        return paper_seconds * self.time_factor

    def iterations(self, paper_iterations: int) -> int:
        """Scale an iteration count (at least 1)."""
        if paper_iterations < 1:
            raise ConfigurationError(
                f"paper_iterations must be >= 1, got {paper_iterations}"
            )
        return max(1, round(paper_iterations * self.work_factor))
