"""Tests for the output-queued crossbar switch with per-flow RR arbitration."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.network import (
    DeterministicService,
    OutputQueuedSwitch,
    default_port_overhead,
)
from repro.network.packet import Packet
from repro.sim import RandomStreams, Simulator


def _switch(sim, bandwidth=1000.0, overhead=0.0, egress=0.0):
    return OutputQueuedSwitch(
        sim,
        port_bandwidth=bandwidth,
        overhead_model=DeterministicService(overhead) if overhead > 0 else DeterministicService(1e-12),
        rng=RandomStreams(0).stream("svc"),
        egress_latency=egress,
    )


def _packet(mid=0, dst=1, size=1000, flow=None):
    return Packet(mid, 0, True, size, src_node=0, dst_node=dst, flow=flow)


def test_single_packet_served_at_port_rate():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    out = []
    switch.attach_endpoint(1, lambda p: out.append(sim.now))
    switch.arrive(_packet(size=1000))
    sim.run()
    assert out == [pytest.approx(1.0, rel=1e-6)]


def test_different_ports_serve_in_parallel():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    out = []
    switch.attach_endpoint(1, lambda p: out.append((sim.now, p.dst_node)))
    switch.attach_endpoint(2, lambda p: out.append((sim.now, p.dst_node)))
    switch.arrive(_packet(mid=0, dst=1))
    switch.arrive(_packet(mid=1, dst=2))
    sim.run()
    # Both complete at t=1: no cross-port contention.
    times = [t for t, _ in out]
    assert times[0] == pytest.approx(1.0, rel=1e-6)
    assert times[1] == pytest.approx(1.0, rel=1e-6)


def test_same_port_serializes():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    out = []
    switch.attach_endpoint(1, lambda p: out.append(sim.now))
    switch.arrive(_packet(mid=0))
    switch.arrive(_packet(mid=1))
    sim.run()
    assert out == [pytest.approx(1.0, rel=1e-6), pytest.approx(2.0, rel=1e-6)]


def test_round_robin_interleaves_flows():
    """A single-packet flow overtakes a long backlog of another flow."""
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    out = []
    switch.attach_endpoint(1, lambda p: out.append((sim.now, p.flow)))
    for i in range(5):
        switch.arrive(_packet(mid=i, flow="bulk"))
    switch.arrive(_packet(mid=9, flow="probe"))
    sim.run()
    # probe is served 3rd (one bulk packet was in service and one more was
    # granted before the rotation saw the probe), not 6th.
    flows = [flow for _t, flow in out]
    assert flows.index("probe") == 2


def test_fifo_within_one_flow():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    out = []
    switch.attach_endpoint(1, lambda p: out.append(p.message_id))
    for i in range(4):
        switch.arrive(_packet(mid=i, flow="same"))
    sim.run()
    assert out == [0, 1, 2, 3]


def test_overhead_added_per_packet():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0, overhead=0.5)
    out = []
    switch.attach_endpoint(1, lambda p: out.append(sim.now))
    switch.arrive(_packet(size=1000))
    sim.run()
    assert out == [pytest.approx(1.5)]


def test_egress_latency_applied():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0, egress=0.25)
    out = []
    switch.attach_endpoint(1, lambda p: out.append(sim.now))
    switch.arrive(_packet())
    sim.run()
    assert out == [pytest.approx(1.25, rel=1e-6)]


def test_utilization_counts_attached_ports():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    switch.attach_endpoint(1, lambda p: None)
    switch.attach_endpoint(2, lambda p: None)
    switch.arrive(_packet(dst=1))  # keeps port 1 busy 1s
    sim.run()
    # One of two ports busy for the full window -> 50%.
    assert switch.utilization(sim.now) == pytest.approx(0.5, rel=1e-6)


def test_queue_introspection():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    switch.attach_endpoint(1, lambda p: None)
    for i in range(3):
        switch.arrive(_packet(mid=i))
    assert switch.queue_length_of(1) == 2  # one in service
    assert switch.total_queued == 2
    assert switch.active_port_count == 1
    sim.run()
    assert switch.total_queued == 0


def test_default_flow_is_source_node():
    packet = Packet(0, 0, True, 100, src_node=7, dst_node=1)
    assert packet.flow == 7


def test_invalid_bandwidth_rejected():
    for bandwidth in (0.0, float("nan")):
        with pytest.raises(ConfigurationError):
            OutputQueuedSwitch(
                Simulator(),
                port_bandwidth=bandwidth,
                overhead_model=DeterministicService(1e-9),
                rng=RandomStreams(0).stream("s"),
            )


def test_port_report_and_hotspots():
    sim = Simulator()
    switch = _switch(sim, bandwidth=1000.0)
    switch.attach_endpoint(1, lambda p: None)
    switch.attach_endpoint(2, lambda p: None)
    # Port 1 gets 3 packets, port 2 gets 1.
    for i in range(3):
        switch.arrive(_packet(mid=i, dst=1))
    switch.arrive(_packet(mid=9, dst=2))
    sim.run()
    report = switch.port_report(sim.now)
    assert report[1][0] == 3 and report[2][0] == 1
    assert report[1][1] > report[2][1]
    hotspots = switch.hotspots(sim.now, top=1)
    assert hotspots[0][0] == 1


def test_port_report_empty_window():
    sim = Simulator()
    switch = _switch(sim)
    assert switch.port_report(sim.now) == {}
    assert switch.hotspots(sim.now) == []


def test_switch_serves_at_least_10k_packets_per_second():
    # The real hot path: stochastic per-packet overhead draws, 18 ports,
    # 64 round-robin flows.  A loose floor (about 0.21 M packets/s on a
    # 2-vCPU x86 host); only a gross regression of the port loop trips it.
    sim = Simulator()
    switch = OutputQueuedSwitch(
        sim,
        port_bandwidth=5e9,
        overhead_model=default_port_overhead(),
        rng=RandomStreams(0).stream("svc"),
        egress_latency=2.5e-7,
    )
    for port in range(18):
        switch.attach_endpoint(port, lambda packet: None)
    for index in range(100_000):
        switch.arrive(Packet(index, 0, True, 2048, 0, index % 18, flow=index % 64))
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert switch.stats.served == 100_000
    assert switch.stats.served / elapsed > 10_000
