"""Tests for Link and NIC serialization behaviour."""

import pytest

from repro.errors import ConfigurationError
from repro.network import Link, NIC
from repro.network.packet import packetize
from repro.sim import Simulator


def test_link_serialization_time():
    link = Link(bandwidth=1e9, latency=1e-6)
    assert link.serialization_time(1000) == pytest.approx(1e-6)
    assert link.transfer_time(1000) == pytest.approx(2e-6)


def test_link_zero_bytes():
    link = Link(bandwidth=1e9, latency=5e-7)
    assert link.serialization_time(0) == 0.0
    assert link.transfer_time(0) == 5e-7


def test_link_validation():
    with pytest.raises(ConfigurationError):
        Link(bandwidth=0, latency=0)
    with pytest.raises(ConfigurationError):
        Link(bandwidth=1e9, latency=-1e-9)
    # NaN would reach the kernel's unvalidated push through the NIC.
    with pytest.raises(ConfigurationError):
        Link(bandwidth=float("nan"), latency=0)
    with pytest.raises(ConfigurationError):
        Link(bandwidth=1e9, latency=float("nan"))
    with pytest.raises(ConfigurationError):
        Link(bandwidth=1e9, latency=0).serialization_time(-1)


def _make_nic(sim, bandwidth=1000.0, latency=0.0, overhead=0.0):
    return NIC(sim, node_id=0, link=Link(bandwidth=bandwidth, latency=latency),
               min_packet_overhead=overhead)


def test_nic_serializes_packets_back_to_back():
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0)  # 1000 B/s -> 1 s per 1000 B
    arrivals = []
    packets = packetize(0, 3000, 1000, 0, 1)  # three 1000-byte packets
    nic.inject(packets, lambda p: arrivals.append((sim.now, p.seq)))
    sim.run()
    assert arrivals == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_nic_adds_propagation_latency():
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0, latency=0.5)
    arrivals = []
    nic.inject(packetize(0, 1000, 1000, 0, 1), lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [1.5]


def test_nic_fifo_across_messages():
    """A second message queues behind the first's serialization."""
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0)
    arrivals = []
    first = packetize(0, 2000, 1000, 0, 1)
    second = packetize(1, 1000, 1000, 0, 2)
    nic.inject(first, lambda p: arrivals.append((sim.now, p.message_id)))
    nic.inject(second, lambda p: arrivals.append((sim.now, p.message_id)))
    sim.run()
    assert arrivals == [(1.0, 0), (2.0, 0), (3.0, 1)]


def test_nic_idle_gap_resets_clock():
    """After the backlog drains, a later injection starts from 'now'."""
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0)
    arrivals = []
    nic.inject(packetize(0, 1000, 1000, 0, 1), lambda p: arrivals.append(sim.now))

    def late_send():
        yield 10.0
        nic.inject(packetize(1, 1000, 1000, 0, 1), lambda p: arrivals.append(sim.now))

    sim.spawn(late_send(), "late")
    sim.run()
    assert arrivals == [1.0, 11.0]


def test_nic_local_completion_excludes_propagation():
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0, latency=99.0)
    done = []
    nic.inject(packetize(0, 2000, 1000, 0, 1), lambda p: None,
               on_complete=lambda: done.append(sim.now))
    sim.run()
    # Local completion fires after serialization (2s), not propagation (99s).
    assert done == [pytest.approx(2.0)]


def test_nic_empty_batch_completes_immediately():
    sim = Simulator()
    nic = _make_nic(sim)
    done = []
    nic.inject([], lambda p: None, on_complete=lambda: done.append(sim.now))
    sim.run()
    assert done == [0.0]


def test_nic_round_robin_across_flows():
    """A one-packet flow is not stuck behind another flow's long backlog."""
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0)
    arrivals = []
    bulk = packetize(0, 5000, 1000, 0, 1, flow="bulk")
    tiny = packetize(1, 1000, 1000, 0, 2, flow="tiny")
    nic.inject(bulk, lambda p: arrivals.append((sim.now, p.flow)))
    nic.inject(tiny, lambda p: arrivals.append((sim.now, p.flow)))
    sim.run()
    # tiny's single packet interleaves after at most two bulk packets
    # (bulk pkt0 was already in service when tiny arrived), not after five.
    assert arrivals[2] == (3.0, "tiny")


def test_nic_per_packet_overhead():
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0, overhead=0.25)
    arrivals = []
    nic.inject(packetize(0, 2000, 1000, 0, 1), lambda p: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(1.25), pytest.approx(2.5)]


def test_nic_counters():
    sim = Simulator()
    nic = _make_nic(sim)
    nic.inject(packetize(0, 2500, 1000, 0, 1), lambda p: None)
    sim.run()
    assert nic.packets_injected == 3
    assert nic.bytes_injected == 2500


def test_nic_backlog_property():
    sim = Simulator()
    nic = _make_nic(sim, bandwidth=1000.0)
    assert nic.backlog_packets == 0
    nic.inject(packetize(0, 5000, 1000, 0, 1), lambda p: None)
    # One packet in service, four queued.
    assert nic.backlog_packets == 4
    assert nic.busy


def test_nic_overhead_validation():
    with pytest.raises(ConfigurationError):
        NIC(Simulator(), 0, Link(1e9, 0.0), min_packet_overhead=-1.0)
    with pytest.raises(ConfigurationError):
        NIC(Simulator(), 0, Link(1e9, 0.0), min_packet_overhead=float("nan"))
