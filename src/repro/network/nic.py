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
        if not min_packet_overhead >= 0:  # negative or NaN
            raise ConfigurationError(
                f"min_packet_overhead must be >= 0, got {min_packet_overhead}"
            )
        self.sim = sim
        self.node_id = node_id
        self.link = link
        self.min_packet_overhead = min_packet_overhead
        # Cached from the link, which refuses a non-positive or NaN
        # bandwidth and a negative or NaN latency: every serialization and
        # hop delay is non-negative, so the NIC pushes it unvalidated.
        self._bandwidth = link.bandwidth
        self._latency = link.latency
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
            if last_index == 0:
                self._start(packet, handoff, on_complete)
                return
            self._start(packet, handoff, None)
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

    # ------------------------------------------------------------------
    def _start(
        self,
        packet: Packet,
        handoff: Handoff,
        callback: Optional[CompletionCallback],
    ) -> None:
        self._busy = True
        sim = self.sim
        serialization = packet.size / self._bandwidth + self.min_packet_overhead
        sim._push(sim._now + serialization, self._done, (packet, handoff, callback))

    def _done(
        self,
        packet: Packet,
        handoff: Handoff,
        callback: Optional[CompletionCallback],
    ) -> None:
        """A packet finished serializing: hand it on, then serve the next."""
        self.packets_injected += 1
        self.bytes_injected += packet.size
        latency = self._latency
        if latency > 0.0:
            sim = self.sim
            sim._push(sim._now + latency, handoff, (packet,))
        else:
            handoff(packet)
        if callback is not None:
            callback()
        order = self._order
        if order:
            # The next packet in round-robin flow order.
            flow = order.popleft()
            flow_queue = self._flows[flow]
            packet, handoff, callback = flow_queue.popleft()
            self._queued -= 1
            if flow_queue:
                order.append(flow)  # rotate to the back
            else:
                del self._flows[flow]
            self._start(packet, handoff, callback)
        else:
            self._busy = False
