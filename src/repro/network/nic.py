"""Per-node network interface: per-flow round-robin injection.

A node's ranks share one NIC.  Real HCAs service their queue pairs
round-robin at packet granularity, so a rank's small message is never stuck
behind megabytes of another rank's backlog on the same node.  The NIC
serializes one packet at a time at link bandwidth (plus a fixed per-packet
overhead), arbitrating across flows exactly like the switch's output ports.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim import Simulator
from .link import Link
from .packet import Packet

__all__ = ["NIC"]

Handoff = Callable[[Packet], None]
CompletionCallback = Callable[[], None]
_Entry = Tuple[Packet, Handoff, Optional[CompletionCallback]]


class NIC:
    """The injection side of one compute node.

    Args:
        sim: the simulation kernel.
        node_id: owning node.
        link: uplink characteristics (bandwidth, propagation latency).
        min_packet_overhead: fixed per-packet injection overhead (header
            processing, DMA setup) added on top of serialization.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        link: Link,
        min_packet_overhead: float = 0.0,
    ) -> None:
        if min_packet_overhead < 0:
            raise ConfigurationError(
                f"min_packet_overhead must be >= 0, got {min_packet_overhead}"
            )
        self.sim = sim
        self.node_id = node_id
        self.link = link
        self.min_packet_overhead = min_packet_overhead
        self._flows: Dict[Hashable, Deque[_Entry]] = {}
        self._order: Deque[Hashable] = deque()
        self._busy = False
        self._queued = 0
        self.packets_injected = 0
        self.bytes_injected = 0

    @property
    def busy(self) -> bool:
        """Whether a packet is currently serializing."""
        return self._busy

    @property
    def backlog_packets(self) -> int:
        """Packets queued behind the one in service."""
        return self._queued

    def inject(
        self,
        packets: Sequence[Packet],
        handoff: Handoff,
        on_complete: Optional[CompletionCallback] = None,
    ) -> None:
        """Queue a message's packets for serialization.

        Each packet is handed to ``handoff`` (typically the first switch's
        ``arrive``) after serialization plus propagation.  ``on_complete``
        fires when the *last* packet of this batch finishes serializing —
        the MPI layer's local send completion.
        """
        if not packets:
            if on_complete is not None:
                self.sim.schedule(0.0, on_complete)
            return
        now = self.sim._now
        last_index = len(packets) - 1
        first = 0
        if not self._busy:
            # An idle NIC's queues are empty: the first packet goes straight
            # into service, as if it were queued and popped back at once.
            packet = packets[0]
            packet.injected_at = now
            self._start(packet, handoff, on_complete if last_index == 0 else None)
            first = 1
        flows = self._flows
        order = self._order
        for index in range(first, last_index + 1):
            packet = packets[index]
            packet.injected_at = now
            flow_queue = flows.get(packet.flow)
            if flow_queue is None:
                flows[packet.flow] = flow_queue = deque()
                order.append(packet.flow)
            callback = on_complete if index == last_index else None
            flow_queue.append((packet, handoff, callback))
        self._queued += last_index + 1 - first
        if first and len(order) > 1 and packets[0].flow in flows:
            # Round robin: the flow just served goes behind every other.
            order.remove(packets[0].flow)
            order.append(packets[0].flow)

    # ------------------------------------------------------------------
    def _serve_next(self) -> None:
        """Pop the next packet in round-robin flow order and serve it."""
        flow = self._order.popleft()
        flow_queue = self._flows[flow]
        packet, handoff, callback = flow_queue.popleft()
        self._queued -= 1
        if flow_queue:
            self._order.append(flow)  # rotate to the back
        else:
            del self._flows[flow]
        self._start(packet, handoff, callback)

    def _start(
        self,
        packet: Packet,
        handoff: Handoff,
        callback: Optional[CompletionCallback],
    ) -> None:
        self._busy = True
        serialization = (
            self.link.serialization_time(packet.size) + self.min_packet_overhead
        )
        self.sim.schedule(serialization, self._done, packet, handoff, callback)

    def _done(
        self,
        packet: Packet,
        handoff: Handoff,
        callback: Optional[CompletionCallback],
    ) -> None:
        self.packets_injected += 1
        self.bytes_injected += packet.size
        if self.link.latency > 0.0:
            self.sim.schedule(self.link.latency, handoff, packet)
        else:
            handoff(packet)
        if callback is not None:
            callback()
        if self._order:
            self._serve_next()
        else:
            self._busy = False
