"""Point-to-point link models.

:class:`Link` is the passive parameter bundle NICs use for serialization
arithmetic.  :class:`FabricLink` is an *active* directed inter-switch link
bound to the simulator: it carries packets between two switches, optionally
applying a per-link fault model (drop, corruption, flap windows, degraded
speed) with all randomness drawn from one named stream so every scenario
replays bit-for-bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .fabric_stats import LinkStats
from .packet import Packet

__all__ = ["Link", "FabricLink"]


@dataclass(frozen=True)
class Link:
    """A full-duplex link characterized by bandwidth and propagation delay.

    Attributes:
        bandwidth: bytes/second (Cab: ~5 GB/s per the paper).
        latency: one-way propagation delay in seconds.
    """

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:  # non-positive or NaN
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth}")
        if not self.latency >= 0:  # negative or NaN
            raise ConfigurationError(f"latency must be non-negative, got {self.latency}")

    def serialization_time(self, nbytes: int) -> float:
        """Time to clock ``nbytes`` onto the wire."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        return nbytes / self.bandwidth

    def transfer_time(self, nbytes: int) -> float:
        """Serialization plus propagation for a single transfer."""
        return self.serialization_time(nbytes) + self.latency


DeliverFn = Callable[[Packet], None]
DropFn = Callable[[Packet, str], None]


class FabricLink:
    """One directed inter-switch link, with an optional fault model.

    A healthy link at full speed is a pure propagation pipe: the upstream
    switch port already serialized the packet at link rate, so the link only
    adds ``latency`` (and an infinite-capacity pipe keeps the healthy fabric
    timing identical to direct switch-to-switch handoff plus a constant).
    Faults change that:

    * ``drop_probability`` — the packet vanishes mid-flight (``on_drop``
      with reason ``"drop"``; the network layer retransmits on timeout).
    * ``corrupt_probability`` — the packet arrives poisoned
      (``packet.corrupted`` set; the receiving NIC's CRC check triggers an
      immediate retransmit).
    * ``down`` windows — the link flaps: anything transmitted during, or in
      flight across, a down-window is lost (reason ``"flap"``).
    * ``speed_factor < 1`` — a degraded link: packets serialize FIFO at
      ``bandwidth * speed_factor`` before propagating, so the slow wire
      itself becomes the queueing bottleneck.

    Drop and corruption consume exactly one uniform draw per packet from
    the link's dedicated stream; fault-free links take no stream at all, so
    adding a healthy fabric perturbs no existing randomness.
    """

    def __init__(
        self,
        sim,
        name: str,
        bandwidth: float,
        latency: float,
        deliver: DeliverFn,
        on_drop: DropFn,
        drop_probability: float = 0.0,
        corrupt_probability: float = 0.0,
        speed_factor: float = 1.0,
        down: Tuple[Tuple[float, float], ...] = (),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ConfigurationError(f"latency must be non-negative, got {latency}")
        if speed_factor <= 0:
            raise ConfigurationError(
                f"speed_factor must be positive, got {speed_factor}"
            )
        if (drop_probability > 0 or corrupt_probability > 0) and rng is None:
            raise ConfigurationError(
                f"link {name}: probabilistic faults need an rng stream"
            )
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.deliver = deliver
        self.on_drop = on_drop
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.speed_factor = speed_factor
        self.down = down
        self.rng = rng
        self.stats = LinkStats(sim.now)
        self._degraded = speed_factor < 1.0
        self._busy = False
        self._queue: Deque[Tuple[Packet, bool]] = deque()

    @property
    def effective_bandwidth(self) -> float:
        return self.bandwidth * min(1.0, self.speed_factor)

    @property
    def is_faulty(self) -> bool:
        return (
            self.drop_probability > 0
            or self.corrupt_probability > 0
            or self._degraded
            or bool(self.down)
        )

    def down_at(self, t: float) -> bool:
        """Whether the link is inside a flap down-window at time ``t``."""
        return any(start <= t < end for start, end in self.down)

    def utilization(self, now: float) -> float:
        """Offered-load fraction of the link's effective capacity."""
        elapsed = now - self.stats.window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.stats.bytes_attempted / (self.effective_bandwidth * elapsed))

    # ------------------------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Carry one packet toward the downstream switch."""
        now = self.sim.now
        self.stats.attempted += 1
        self.stats.bytes_attempted += packet.size
        if self.down_at(now):
            self._drop(packet, "flap")
            return
        corrupted_here = False
        if self.rng is not None:
            draw = self.rng.random()
            if draw < self.drop_probability:
                self._drop(packet, "drop")
                return
            if draw < self.drop_probability + self.corrupt_probability:
                # Poison the payload; the receiving NIC's CRC catches it.
                # A packet corrupted upstream stays corrupted but is *this*
                # link's clean delivery — only the corrupting link counts it.
                packet.corrupted = True
                corrupted_here = True
        if self._degraded:
            self._queue.append((packet, corrupted_here))
            if not self._busy:
                self._start_serialization()
        else:
            self.sim.schedule(self.latency, self._arrive, packet, corrupted_here)

    def _start_serialization(self) -> None:
        self._busy = True
        packet, corrupted_here = self._queue.popleft()
        service = packet.size / self.effective_bandwidth
        self.sim.schedule(service, self._serialized, packet, corrupted_here, service)

    def _serialized(self, packet: Packet, corrupted_here: bool, service: float) -> None:
        self.stats.busy_time += service
        self.sim.schedule(self.latency, self._arrive, packet, corrupted_here)
        if self._queue:
            self._start_serialization()
        else:
            self._busy = False

    def _arrive(self, packet: Packet, corrupted_here: bool) -> None:
        # Second flap check at delivery time: a window that opens while the
        # packet is in flight still eats it, so a down-window delivers
        # exactly zero packets.
        if self.down_at(self.sim.now):
            self._drop(packet, "flap")
            return
        self.stats.bytes_delivered += packet.size
        if corrupted_here:
            self.stats.corrupted += 1
        else:
            self.stats.delivered += 1
        self.deliver(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        packet.corrupted = False  # a lost packet is just lost, not poisoned
        self.stats.dropped += 1
        if reason == "flap":
            self.stats.flap_dropped += 1
        self.on_drop(packet, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flags = " faulty" if self.is_faulty else ""
        return f"<FabricLink {self.name}{flags} {self.stats!r}>"
