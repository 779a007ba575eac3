"""Packets and message packetization.

"Application messages are broken up into multiple small (few KB) packets and
sent to the network switch" (paper §III-A).  A :class:`Packet` is the unit the
fabric serves; the packetizer splits a message byte count into MTU-sized
chunks.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["Packet", "packetize", "packet_count"]


class Packet:
    """One fabric-scheduling unit of a message.

    Attributes:
        message_id: id of the carrying message (opaque to the network).
        seq: 0-based index within the message.
        last: whether this is the final packet of its message.
        size: bytes carried (≤ MTU).
        src_node / dst_node: endpoint node ids.
        route: remaining fabric hops (managed by the network glue).
        injected_at: time the packet entered the source NIC queue.
        arrived_fabric_at: time the packet arrived at the current fabric.
        corrupted: poisoned by a faulty link in flight; the receiving NIC
            detects it (CRC) and triggers a retransmit instead of delivery.
    """

    __slots__ = (
        "message_id",
        "seq",
        "last",
        "size",
        "src_node",
        "dst_node",
        "flow",
        "route",
        "hop",
        "injected_at",
        "arrived_fabric_at",
        "corrupted",
    )

    def __init__(
        self,
        message_id: int,
        seq: int,
        last: bool,
        size: int,
        src_node: int,
        dst_node: int,
        flow: Any = None,
    ) -> None:
        self.message_id = message_id
        self.seq = seq
        self.last = last
        self.size = size
        self.src_node = src_node
        self.dst_node = dst_node
        #: Arbitration key (sending rank / QP); defaults to the source node.
        self.flow = flow if flow is not None else src_node
        self.route: Optional[Tuple[Any, ...]] = None
        self.hop = 0
        self.injected_at = -1.0
        self.arrived_fabric_at = -1.0
        self.corrupted = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet msg={self.message_id} seq={self.seq} size={self.size} "
            f"{self.src_node}->{self.dst_node}{' last' if self.last else ''}>"
        )


def packet_count(nbytes: int, mtu: int) -> int:
    """Number of packets a message of ``nbytes`` occupies at ``mtu``.

    Zero-byte messages still cost one (header-only) packet.
    """
    if mtu <= 0:
        raise ConfigurationError(f"mtu must be positive, got {mtu}")
    if nbytes < 0:
        raise ConfigurationError(f"message size must be non-negative, got {nbytes}")
    return max(1, -(-nbytes // mtu))  # ceil division


def packetize(
    message_id: int,
    nbytes: int,
    mtu: int,
    src_node: int,
    dst_node: int,
    flow: Any = None,
) -> List[Packet]:
    """Split a message into MTU-sized packets (final packet takes the rest)."""
    count = packet_count(nbytes, mtu)
    packets: List[Packet] = []
    remaining = nbytes
    for seq in range(count):
        size = min(mtu, remaining) if remaining > 0 else 0
        remaining -= size
        packets.append(
            Packet(
                message_id=message_id,
                seq=seq,
                last=(seq == count - 1),
                size=size,
                src_node=src_node,
                dst_node=dst_node,
                flow=flow,
            )
        )
    return packets
