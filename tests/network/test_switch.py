"""Tests for the switch fabric queue."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.network import DeterministicService, ExponentialService, SwitchFabric
from repro.network.packet import Packet
from repro.sim import RandomStreams, Simulator


def _packet(message_id=0, seq=0, dst=1, size=1000):
    return Packet(message_id, seq, True, size, src_node=0, dst_node=dst)


def _fabric(sim, service=1.0, egress=0.0, servers=1):
    return SwitchFabric(
        sim,
        service_model=DeterministicService(service),
        rng=RandomStreams(0).stream("svc"),
        egress_latency=egress,
        servers=servers,
    )


def test_single_packet_served_after_service_time():
    sim = Simulator()
    fabric = _fabric(sim, service=2.0)
    out = []
    fabric.attach_endpoint(1, lambda p: out.append(sim.now))
    fabric.arrive(_packet())
    sim.run()
    assert out == [2.0]


def test_fifo_queueing_of_simultaneous_arrivals():
    sim = Simulator()
    fabric = _fabric(sim, service=1.0)
    out = []
    fabric.attach_endpoint(1, lambda p: out.append((sim.now, p.message_id)))
    fabric.arrive(_packet(message_id=0))
    fabric.arrive(_packet(message_id=1))
    fabric.arrive(_packet(message_id=2))
    assert fabric.queue_length == 2 and fabric.in_service == 1
    sim.run()
    assert out == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_egress_latency_added_after_service():
    sim = Simulator()
    fabric = _fabric(sim, service=1.0, egress=0.5)
    out = []
    fabric.attach_endpoint(1, lambda p: out.append(sim.now))
    fabric.arrive(_packet())
    sim.run()
    assert out == [1.5]


def test_multiple_servers_serve_in_parallel():
    sim = Simulator()
    fabric = _fabric(sim, service=1.0, servers=2)
    out = []
    fabric.attach_endpoint(1, lambda p: out.append(sim.now))
    for m in range(3):
        fabric.arrive(_packet(message_id=m))
    sim.run()
    assert out == [1.0, 1.0, 2.0]


def test_unattached_destination_raises():
    sim = Simulator()
    fabric = _fabric(sim)
    fabric.arrive(_packet(dst=42))
    with pytest.raises(SimulationError, match="no endpoint"):
        sim.run()


def test_double_attach_rejected():
    sim = Simulator()
    fabric = _fabric(sim)
    fabric.attach_endpoint(1, lambda p: None)
    with pytest.raises(ConfigurationError, match="already attached"):
        fabric.attach_endpoint(1, lambda p: None)


def test_invalid_construction():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        _fabric(sim, servers=0)
    with pytest.raises(ConfigurationError):
        _fabric(sim, egress=-0.1)
    with pytest.raises(ConfigurationError):
        _fabric(sim, egress=float("nan"))


def test_stats_track_waits_and_busy_time():
    sim = Simulator()
    fabric = _fabric(sim, service=1.0)
    fabric.attach_endpoint(1, lambda p: None)
    fabric.arrive(_packet(0))
    fabric.arrive(_packet(1))  # waits 1s
    sim.run()
    stats = fabric.stats
    assert stats.arrivals == 2
    assert stats.served == 2
    assert stats.busy_time == pytest.approx(2.0)
    assert stats.mean_wait == pytest.approx(0.5)
    assert stats.mean_service == pytest.approx(1.0)
    assert stats.mean_sojourn == pytest.approx(1.5)
    assert stats.utilization(sim.now) == pytest.approx(1.0)


def test_stats_reset_window():
    sim = Simulator()
    fabric = _fabric(sim, service=1.0)
    fabric.attach_endpoint(1, lambda p: None)
    fabric.arrive(_packet(0))
    sim.run()
    fabric.stats.reset(sim.now)
    assert fabric.stats.served == 0
    assert fabric.stats.utilization(sim.now + 10.0) == 0.0


def test_mg1_simulation_matches_pollaczek_khinchine():
    """Poisson arrivals + exponential service: measured sojourn ≈ M/M/1 W."""
    from repro.queueing import MM1

    sim = Simulator()
    service_mean = 1.0
    fabric = SwitchFabric(
        sim,
        service_model=ExponentialService(service_mean),
        rng=RandomStreams(7).stream("svc"),
        egress_latency=0.0,
    )
    fabric.attach_endpoint(1, lambda p: None)
    rho = 0.6
    arrivals_rng = RandomStreams(7).stream("arrivals")

    def poisson_source():
        for m in range(40_000):
            yield float(arrivals_rng.exponential(service_mean / rho))
            fabric.arrive(_packet(message_id=m))

    sim.spawn(poisson_source(), "src")
    sim.run()
    theory = MM1(arrival_rate=rho / service_mean, service_rate=1.0 / service_mean)
    measured = fabric.stats.mean_sojourn
    assert measured == pytest.approx(theory.sojourn_time, rel=0.08)
    assert fabric.stats.utilization(sim.now) == pytest.approx(rho, abs=0.03)
