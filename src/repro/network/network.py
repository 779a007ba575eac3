"""The interconnect: NICs + switches + routing + message reassembly.

:class:`InterconnectNetwork` is the message-level API the MPI layer uses.
A send packetizes the message, serializes the packets through the source
node's NIC, routes them through the switch fabric(s), and fires a delivery
callback when the final packet reaches the destination node.  Intra-node
messages bypass the network (shared-memory path).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - avoids a config <-> network import cycle
    from ..config import NetworkConfig
from ..sim import RandomStreams, Simulator
from .link import FabricLink, Link
from .nic import NIC
from .packet import Packet, packetize
from .switch import OutputQueuedSwitch, SwitchFabric
from .topology import SingleSwitchTopology, Topology

__all__ = ["InterconnectNetwork"]

DeliveredCallback = Callable[[], None]
SentCallback = Callable[[], None]


def _sent_then_delivered(on_sent: SentCallback, on_delivered: DeliveredCallback) -> None:
    """A shared-memory message: local send completion, then delivery.

    Both happen at the same instant, so one heap entry runs them in the
    order two adjacent entries would.
    """
    on_sent()
    on_delivered()


class _PendingMessage:
    """Reassembly state for one in-flight message."""

    __slots__ = ("remaining", "on_delivered")

    def __init__(self, remaining: int, on_delivered: DeliveredCallback) -> None:
        self.remaining = remaining
        self.on_delivered = on_delivered


class InterconnectNetwork:
    """A simulated interconnect bound to one simulator.

    Args:
        sim: the simulation kernel.
        topology: node/switch layout (default: single switch).
        config: link/fabric parameters.
        streams: random streams (fabric service draws use
            ``"network.switch<i>.service"``).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: "NetworkConfig",
        streams: RandomStreams,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config
        link = Link(bandwidth=config.link_bandwidth, latency=config.link_latency)
        self.nics: List[NIC] = [
            NIC(sim, node_id, link, min_packet_overhead=config.nic_overhead)
            for node_id in range(topology.node_count)
        ]
        if config.switch_mode == "central":
            self.switches: List = [
                SwitchFabric(
                    sim,
                    service_model=config.fabric_service,
                    rng=streams.stream(f"network.switch{i}.service"),
                    egress_latency=config.egress_latency,
                    servers=config.fabric_servers,
                    name=f"switch{i}",
                )
                for i in range(topology.switch_count)
            ]
        else:
            self.switches = [
                OutputQueuedSwitch(
                    sim,
                    port_bandwidth=config.link_bandwidth,
                    overhead_model=config.port_overhead,
                    rng=streams.stream(f"network.switch{i}.service"),
                    egress_latency=config.egress_latency,
                    name=f"switch{i}",
                )
                for i in range(topology.switch_count)
            ]
        # Attach every node's delivery handler to the switch that can be the
        # last hop toward it (its attachment switch).
        for node_id in range(topology.node_count):
            switch = self.switches[topology.attachment(node_id)]
            switch.attach_endpoint(node_id, self._on_packet)
        # First-class inter-switch links.  Every cabled direction the
        # topology declares becomes a FabricLink wired into its source
        # switch; fault rules from the config are matched first-wins by
        # link name.  Faulty links draw from their own named stream
        # ("network.link.<name>.faults"); healthy links take none, so a
        # fault-free fabric perturbs no existing randomness.
        self.links: Dict[str, FabricLink] = {}
        fault_rules = getattr(config, "link_faults", ())
        for name, src_id, dst_id in topology.links():
            rule = next((r for r in fault_rules if r.matches(name)), None)
            dst_switch = self.switches[dst_id]

            def _deliver(packet: Packet, _dst=dst_switch) -> None:
                packet.hop += 1
                _dst.arrive(packet)

            needs_rng = rule is not None and (
                rule.drop_probability > 0 or rule.corrupt_probability > 0
            )
            link = FabricLink(
                sim,
                name=name,
                bandwidth=config.link_bandwidth,
                latency=config.link_latency,
                deliver=_deliver,
                on_drop=self._on_link_drop,
                drop_probability=rule.drop_probability if rule else 0.0,
                corrupt_probability=rule.corrupt_probability if rule else 0.0,
                speed_factor=rule.speed_factor if rule else 1.0,
                down=rule.down if rule else (),
                rng=streams.stream(f"network.link.{name}.faults") if needs_rng else None,
            )
            self.links[name] = link
            self.switches[src_id].connect_uplink(dst_switch, link)
        self._message_ids = itertools.count()
        self._pending: Dict[int, _PendingMessage] = {}
        # Switch route per (src, dst, flow): routing is a pure function of
        # the three, so each is computed once.
        self._routes: Dict[Tuple[int, int, object], Tuple[object, ...]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Packet-conservation ledger (the fault model's bookkeeping).
        # Invariant at drain: offered == delivered + dropped + corrupted.
        self.packets_offered = 0  # NIC injections, including retransmits
        self.packets_delivered = 0  # clean endpoint deliveries
        self.packets_corrupted = 0  # poisoned endpoint arrivals (retried)
        self.packets_dropped = 0  # lost on a link (incl. flap losses)
        self.retransmits_drop = 0
        self.retransmits_corrupt = 0
        self._register_counters()

    def _register_counters(self) -> None:
        """Expose component tallies through the kernel's counter registry.

        Probes are pulled only when :meth:`Simulator.counters` is called, so
        the packet hot path pays nothing for them.
        """
        self.sim.register_counter("network.messages", lambda: self.messages_sent)
        self.sim.register_counter("network.bytes", lambda: self.bytes_sent)
        self.sim.register_counter("network.in_flight", lambda: len(self._pending))
        self.sim.register_counter(
            "nic.packets", lambda: sum(nic.packets_injected for nic in self.nics)
        )
        self.sim.register_counter(
            "nic.bytes", lambda: sum(nic.bytes_injected for nic in self.nics)
        )
        for index, switch in enumerate(self.switches):
            stats = switch.stats
            self.sim.register_counter(
                f"switch{index}.arrivals", lambda s=stats: s.arrivals
            )
            self.sim.register_counter(f"switch{index}.served", lambda s=stats: s.served)
            self.sim.register_counter(
                f"switch{index}.busy_seconds", lambda s=stats: s.busy_time
            )
        if self.links:
            self.sim.register_counter(
                "network.packets_offered", lambda: self.packets_offered
            )
            self.sim.register_counter(
                "network.packets_delivered", lambda: self.packets_delivered
            )
            self.sim.register_counter(
                "network.packets_dropped", lambda: self.packets_dropped
            )
            self.sim.register_counter(
                "network.packets_corrupted", lambda: self.packets_corrupted
            )
            self.sim.register_counter(
                "network.retransmits",
                lambda: self.retransmits_drop + self.retransmits_corrupt,
            )
            for name, link in self.links.items():
                stats = link.stats
                self.sim.register_counter(
                    f"link.{name}.attempted", lambda s=stats: s.attempted
                )
                self.sim.register_counter(
                    f"link.{name}.delivered", lambda s=stats: s.delivered
                )
                self.sim.register_counter(
                    f"link.{name}.dropped", lambda s=stats: s.dropped
                )
                self.sim.register_counter(
                    f"link.{name}.corrupted", lambda s=stats: s.corrupted
                )
                self.sim.register_counter(
                    f"link.{name}.flap_dropped", lambda s=stats: s.flap_dropped
                )
                self.sim.register_counter(
                    f"link.{name}.bytes", lambda s=stats: s.bytes_delivered
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def switch(self, index: int = 0):
        """Access a switch (for stats / calibration)."""
        return self.switches[index]

    def link(self, name: str) -> FabricLink:
        """Access one directed inter-switch link by name (``leaf0->spine1``)."""
        try:
            return self.links[name]
        except KeyError:
            raise ConfigurationError(
                f"no link named {name!r}; known: {sorted(self.links) or 'none'}"
            ) from None

    def link_report(self) -> Dict[str, dict]:
        """Per-link counter snapshot plus utilization (telemetry payload).

        Links are emitted in sorted-name order — not dict-insertion order,
        which would leak topology construction order into JSON artifacts
        and make otherwise-identical reports diff noisily.
        """
        now = self.sim.now
        report = {}
        for name in sorted(self.links):
            link = self.links[name]
            row = link.stats.to_dict()
            row["utilization"] = link.utilization(now)
            row["faulty"] = link.is_faulty
            report[name] = row
        return report

    def true_utilization(self, index: int = 0) -> float:
        """Ground-truth utilization of one switch over the stats window.

        For output-queued switches this is the mean busy fraction across
        attached ports; for a central fabric it is the server busy fraction.
        """
        switch = self.switches[index]
        if isinstance(switch, OutputQueuedSwitch):
            return switch.utilization(self.sim.now)
        return switch.stats.utilization(self.sim.now)

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet fully delivered."""
        return len(self._pending)

    def reset_stats(self) -> None:
        """Open a fresh measurement window on every fabric and link."""
        for switch in self.switches:
            switch.stats.reset(self.sim.now)
        for link in self.links.values():
            link.stats.reset(self.sim.now)

    # ------------------------------------------------------------------
    # Message path
    # ------------------------------------------------------------------
    def send(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_delivered: DeliveredCallback,
        on_sent: Optional[SentCallback] = None,
        flow: Optional[object] = None,
    ) -> int:
        """Send ``nbytes`` from ``src_node`` to ``dst_node``.

        Args:
            on_delivered: fires when the last packet reaches the destination.
            on_sent: fires at local send completion (last packet serialized
                by the source NIC) — the MPI layer completes isend here.
            flow: arbitration key for per-flow round-robin at switch output
                ports (typically the sending rank); defaults to the source
                node.

        Returns:
            The message id (useful for tracing).
        """
        if not nbytes >= 0:  # negative or NaN
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        message_id = next(self._message_ids)
        self.messages_sent += 1
        self.bytes_sent += nbytes

        if src_node == dst_node:
            # Shared-memory path: no NIC, no fabric.
            delay = self.config.local_latency + nbytes / self.config.local_bandwidth
            if on_sent is None:
                self.sim.schedule(delay, on_delivered)
            else:
                self.sim.schedule(delay, _sent_then_delivered, on_sent, on_delivered)
            return message_id

        # The flow key drives both ECMP path selection and per-flow
        # arbitration at NIC/port queues, so a flow's packets never reorder.
        flow_key = flow if flow is not None else src_node
        route_key = (src_node, dst_node, flow_key)
        route = self._routes.get(route_key)
        if route is None:
            route_ids = self.topology.route_flow(src_node, dst_node, flow_key)
            route = self._routes[route_key] = tuple(self.switches[i] for i in route_ids)
        if nbytes <= self.config.mtu:
            # Most MPI messages fit one packet: build it without packetize.
            packet = Packet(message_id, 0, True, nbytes, src_node, dst_node, flow_key)
            packet.route = route
            packets = [packet]
            count = 1
        else:
            packets = packetize(
                message_id, nbytes, self.config.mtu, src_node, dst_node, flow=flow_key
            )
            for packet in packets:
                packet.route = route
            count = len(packets)
        self._pending[message_id] = _PendingMessage(count, on_delivered)

        self.packets_offered += count
        self.nics[src_node].inject(packets, route[0].arrive, on_sent)
        return message_id

    def _on_packet(self, packet: Packet) -> None:
        if packet.corrupted:
            # NIC-layer CRC failure: the receiver rejects the packet and the
            # sender retransmits immediately — exactly once per corruption.
            self.packets_corrupted += 1
            self.retransmits_corrupt += 1
            packet.corrupted = False
            self.sim.schedule(0.0, self._retransmit, packet)
            return
        self.packets_delivered += 1
        pending = self._pending.get(packet.message_id)
        if pending is None:
            raise ConfigurationError(
                f"delivery for unknown message {packet.message_id}"
            )
        pending.remaining -= 1
        if pending.remaining == 0:
            del self._pending[packet.message_id]
            pending.on_delivered()

    # ------------------------------------------------------------------
    # Fault recovery (NIC-layer reliable delivery)
    # ------------------------------------------------------------------
    def _on_link_drop(self, packet: Packet, reason: str) -> None:
        """A link lost a packet; recover it after the retransmit timeout."""
        self.packets_dropped += 1
        self.retransmits_drop += 1
        self.sim.schedule(self.config.retransmit_timeout, self._retransmit, packet)

    def _retransmit(self, packet: Packet) -> None:
        """Re-inject a lost or rejected packet from its source NIC.

        The packet keeps its original route (same flow → same ECMP path),
        restarting from hop 0 through the source NIC's serializer.
        """
        packet.hop = 0
        self.packets_offered += 1
        self.nics[packet.src_node].inject([packet], packet.route[0].arrive)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def single_switch(
        cls,
        sim: Simulator,
        node_count: int,
        config: "NetworkConfig",
        streams: RandomStreams,
    ) -> "InterconnectNetwork":
        """The paper's configuration: every node on one leaf switch."""
        return cls(sim, SingleSwitchTopology(node_count), config, streams)
