"""Switch models.

Two fidelity levels are provided:

* :class:`SwitchFabric` — the paper's *analytic* abstraction made literal: the
  whole switch is one FIFO queue with stochastic service times (M/G/1 when
  arrivals are Poisson).  Used for queueing-theory validation and ablations.

* :class:`OutputQueuedSwitch` — the default experimental substrate: a
  crossbar with one FIFO queue per output port, each serving at link rate
  plus a stochastic per-packet routing overhead.  Aggregate capacity scales
  with the port count (as on the QLogic 12300), so heavy interference
  saturates *ports*, never starves the whole switch — matching the paper's
  observation that even the heaviest CompressionB config leaves the switch
  at ~92%, not 100%.

Both are written callback-style (no coroutine machinery) because they are
the hot path: each packet costs one arrival call, one scheduled completion,
and one delivery.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, List, Tuple

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..sim import Simulator
from .fabric_stats import FabricStats
from .packet import Packet
from .sampling import SampleStream
from .service_time import ServiceTimeModel

__all__ = ["SwitchFabric", "OutputQueuedSwitch"]

DeliveryHandler = Callable[[Packet], None]


class _SwitchBase:
    """Shared wiring: endpoint registry, uplinks, and route advancement."""

    def __init__(self, sim: Simulator, name: str, egress_latency: float) -> None:
        if not egress_latency >= 0:  # negative or NaN
            raise ConfigurationError(f"egress_latency must be >= 0, got {egress_latency}")
        self.sim = sim
        self.name = name
        self.egress_latency = egress_latency
        self.stats = FabricStats(sim.now)
        self._endpoints: Dict[int, DeliveryHandler] = {}
        # Inter-switch uplinks, keyed by id() of the downstream switch.
        # When present, the link carries (and may drop/corrupt/slow) the
        # packet; when absent, the next hop is handed the packet directly.
        self._uplinks: Dict[int, object] = {}

    def attach_endpoint(self, node_id: int, handler: DeliveryHandler) -> None:
        """Register the delivery handler for packets destined to ``node_id``."""
        if node_id in self._endpoints:
            raise ConfigurationError(f"node {node_id} already attached to {self.name}")
        self._endpoints[node_id] = handler

    def connect_uplink(self, next_switch: "_SwitchBase", link) -> None:
        """Wire the :class:`FabricLink` carrying traffic toward ``next_switch``."""
        key = id(next_switch)
        if key in self._uplinks:
            raise ConfigurationError(
                f"{self.name}: uplink toward {next_switch.name} already connected"
            )
        self._uplinks[key] = link

    @property
    def attached_ports(self) -> int:
        """Endpoints (downlink ports) wired to this switch."""
        return len(self._endpoints)

    def _deliver(self, packet: Packet) -> None:
        route = packet.route
        if route is not None and packet.hop + 1 < len(route):
            # More fabric hops remain (multi-switch topologies).
            next_switch = route[packet.hop + 1]
            link = self._uplinks.get(id(next_switch))
            if link is not None:
                link.transmit(packet)  # the link advances the hop on arrival
                return
            packet.hop += 1
            next_switch.arrive(packet)
            return
        handler = self._endpoints.get(packet.dst_node)
        if handler is None:
            raise SimulationError(
                f"{self.name}: no endpoint attached for node {packet.dst_node}"
            )
        handler(packet)

    def _finish(self, packet: Packet) -> None:
        """Route a served packet onward, honouring the egress latency."""
        if self.egress_latency > 0.0:
            sim = self.sim
            sim._push(sim._now + self.egress_latency, self._deliver, (packet,))
        else:
            self._deliver(packet)


class SwitchFabric(_SwitchBase):
    """A switch modelled as a c-server FIFO queue with general service times.

    Args:
        sim: the simulation kernel.
        service_model: per-packet service-time distribution (size-independent).
        rng: random stream for service draws.
        egress_latency: fixed delay from service completion to delivery.
        servers: number of parallel servers (1 = the paper's M/G/1 view).
        name: label for diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        service_model: ServiceTimeModel,
        rng: np.random.Generator,
        egress_latency: float = 0.0,
        servers: int = 1,
        name: str = "switch",
    ) -> None:
        super().__init__(sim, name, egress_latency)
        if servers < 1:
            raise ConfigurationError(f"servers must be >= 1, got {servers}")
        self.service_model = service_model
        self.rng = rng
        self.servers = servers
        self._busy = 0
        self._queue: Deque[Packet] = deque()
        self._service = SampleStream(service_model, rng)

    @property
    def queue_length(self) -> int:
        """Packets waiting (excluding those in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Packets currently being served."""
        return self._busy

    # ------------------------------------------------------------------
    def arrive(self, packet: Packet) -> None:
        """A packet arrives at an input port and joins the fabric queue."""
        packet.arrived_fabric_at = self.sim._now
        self.stats.record_arrival(len(self._queue))
        if self._busy < self.servers:
            self._start_service(packet)
        else:
            self._queue.append(packet)

    def _start_service(self, packet: Packet) -> None:
        self._busy += 1
        service = self._service.next()
        wait = self.sim._now - packet.arrived_fabric_at
        self.sim.schedule(service, self._complete, packet, wait, service)

    def _complete(self, packet: Packet, wait: float, service: float) -> None:
        self.stats.record_service(wait, service)
        self._busy -= 1
        if self._queue:
            self._start_service(self._queue.popleft())
        self._finish(packet)


class _OutputPort:
    """One output port: per-flow queues drained round-robin at link rate.

    Flows (sending ranks / QPs) are arbitrated round-robin at packet
    granularity, as InfiniBand switch virtual-lane arbitration and HCA QP
    scheduling approximate.  A light flow (a probe packet, an application
    halo) therefore waits at most ~one packet per competing flow, never
    behind a whole multi-megabyte interference burst.
    """

    __slots__ = ("switch", "busy", "flows", "order", "queued", "served", "busy_time")

    def __init__(self, switch: "OutputQueuedSwitch") -> None:
        self.switch = switch
        self.busy = False
        self.flows: Dict[Hashable, Deque[Packet]] = {}
        self.order: Deque[Hashable] = deque()
        self.queued = 0
        self.served = 0
        self.busy_time = 0.0

    def arrive(self, packet: Packet) -> None:
        switch = self.switch
        sim = switch.sim
        now = sim._now
        packet.arrived_fabric_at = now
        # FabricStats.record_arrival, inlined: every packet crossing the
        # switch arrives here.
        stats = switch.stats
        stats.arrivals += 1
        if self.queued > stats.queue_peak:
            stats.queue_peak = self.queued
        if not self.busy:
            # An idle port's queues are empty: serve the packet at once,
            # so it waited 0.0, which is what now - now gives.
            self.busy = True
            service = packet.size / switch.port_bandwidth + switch._overhead.next()
            sim._push(now + service, self._complete, (packet, 0.0, service))
            return
        flow_queue = self.flows.get(packet.flow)
        if flow_queue is None:
            self.flows[packet.flow] = flow_queue = deque()
            self.order.append(packet.flow)
        flow_queue.append(packet)
        self.queued += 1

    def _complete(self, packet: Packet, wait: float, service: float) -> None:
        """A packet finished service: start the next, then route it onward."""
        switch = self.switch
        sim = switch.sim
        # FabricStats.record_service and the switch's _finish, inlined.
        stats = switch.stats
        stats.served += 1
        stats.wait_sum += wait
        stats.service_sum += service
        stats.busy_time += service
        self.served += 1
        self.busy_time += service
        order = self.order
        if order:
            # The next packet in round-robin flow order; the port stays busy.
            flows = self.flows
            flow = order.popleft()
            flow_queue = flows[flow]
            queued = flow_queue.popleft()
            self.queued -= 1
            if flow_queue:
                order.append(flow)  # rotate: flow goes to the back
            else:
                del flows[flow]
            # Service is a size over the validated port bandwidth plus a
            # draw from a service model with non-negative draws: never
            # negative or NaN, so it is pushed without validation.
            next_service = queued.size / switch.port_bandwidth + switch._overhead.next()
            now = sim._now
            sim._push(
                now + next_service,
                self._complete,
                (queued, now - queued.arrived_fabric_at, next_service),
            )
        else:
            self.busy = False
        egress = switch.egress_latency
        if egress > 0.0:
            sim._push(sim._now + egress, switch._deliver, (packet,))
        else:
            switch._deliver(packet)


class OutputQueuedSwitch(_SwitchBase):
    """A crossbar switch with per-output-port FIFO queues.

    Each packet is forwarded instantly to its output port's queue, where it
    is serialized at ``port_bandwidth`` plus a stochastic per-packet routing
    overhead.  Contention therefore arises where it really does on an
    output-queued crossbar: at hot destination ports.

    Args:
        sim: the simulation kernel.
        port_bandwidth: per-port drain rate in bytes/s (Cab: 5 GB/s).
        overhead_model: per-packet routing-overhead distribution (this is
            what gives the idle latency distribution its body and tail).
        rng: random stream for overhead draws.
        egress_latency: fixed delay from port completion to delivery.
        name: label for diagnostics.
    """

    def __init__(
        self,
        sim: Simulator,
        port_bandwidth: float,
        overhead_model: ServiceTimeModel,
        rng: np.random.Generator,
        egress_latency: float = 0.0,
        name: str = "switch",
    ) -> None:
        super().__init__(sim, name, egress_latency)
        if not port_bandwidth > 0:  # non-positive or NaN
            raise ConfigurationError(
                f"port_bandwidth must be positive, got {port_bandwidth}"
            )
        self.port_bandwidth = port_bandwidth
        self.overhead_model = overhead_model
        self.rng = rng
        self._ports: Dict[Hashable, _OutputPort] = {}
        self._overhead = SampleStream(overhead_model, rng)

    def arrive(self, packet: Packet) -> None:
        """Forward a packet to its output port queue."""
        route = packet.route
        if route is not None and packet.hop + 1 < len(route):
            # Intermediate hop: the output port faces the next switch.
            key: Hashable = ("up", id(route[packet.hop + 1]))
        else:
            key = packet.dst_node
        port = self._ports.get(key)
        if port is None:
            port = _OutputPort(self)
            self._ports[key] = port
        port.arrive(packet)

    # ------------------------------------------------------------------
    @property
    def active_port_count(self) -> int:
        """Output ports that have carried at least one packet."""
        return len(self._ports)

    def queue_length_of(self, node_id: int) -> int:
        """Waiting packets on the port toward ``node_id`` (0 if unused)."""
        port = self._ports.get(node_id)
        return port.queued if port else 0

    @property
    def total_queued(self) -> int:
        """Waiting packets across all ports."""
        return sum(port.queued for port in self._ports.values())

    def utilization(self, now: float) -> float:
        """Mean busy fraction across attached ports (ground truth)."""
        ports = max(1, self.attached_ports)
        elapsed = now - self.stats.window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.busy_time / (elapsed * ports))

    def port_report(self, now: float) -> Dict[Hashable, Tuple[int, float]]:
        """Per-output-port (packets served, busy fraction) over the window.

        Keys are destination node ids (or ``("up", id)`` tuples for
        inter-switch ports).  Note: per-port counters accumulate for the
        switch's lifetime; use a fresh machine per measurement (as the
        experiment runner does) for clean windows.
        """
        elapsed = now - self.stats.window_start
        if elapsed <= 0:
            return {}
        return {
            key: (port.served, min(1.0, port.busy_time / elapsed))
            for key, port in self._ports.items()
        }

    def hotspots(self, now: float, top: int = 5) -> List[Tuple[Hashable, float]]:
        """The ``top`` busiest output ports, (key, busy fraction), descending.

        Contention on an output-queued crossbar *is* its hot ports; this is
        the first thing to look at when an application degrades.
        """
        report = self.port_report(now)
        ranked = sorted(
            ((key, busy) for key, (_served, busy) in report.items()),
            key=lambda pair: pair[1],
            reverse=True,
        )
        return ranked[:top]
