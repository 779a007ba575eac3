"""Tests for the InterconnectNetwork message layer."""

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigurationError
from repro.network import (
    DeterministicService,
    LeafSpineTopology,
    InterconnectNetwork,
    SingleSwitchTopology,
)
from repro.sim import RandomStreams, Simulator
from repro.units import KB, US


def _net(sim, nodes=4, **overrides):
    config = NetworkConfig(
        switch_mode="central",
        fabric_service=DeterministicService(0.8 * US),
        **overrides,
    )
    return InterconnectNetwork.single_switch(sim, nodes, config, RandomStreams(0))


def test_message_delivery_fires_once():
    sim = Simulator()
    net = _net(sim)
    done = []
    net.send(0, 1, 1 * KB, on_delivered=lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 1
    assert 0.5 * US < done[0] < 5 * US


def test_multi_packet_message_delivers_on_last_packet():
    sim = Simulator()
    net = _net(sim, mtu=1024)
    single, multi = [], []
    net.send(0, 1, 1 * KB, on_delivered=lambda: single.append(sim.now))
    sim.run()
    sim2 = Simulator()
    net2 = _net(sim2, mtu=1024)
    net2.send(0, 1, 8 * KB, on_delivered=lambda: multi.append(sim2.now))
    sim2.run()
    assert multi[0] > single[0]  # eight packets take longer than one


def test_on_sent_fires_at_local_completion_before_delivery():
    sim = Simulator()
    net = _net(sim, mtu=1024, link_latency=5 * US)
    sent, delivered = [], []
    net.send(
        0, 1, 4 * KB,
        on_delivered=lambda: delivered.append(sim.now),
        on_sent=lambda: sent.append(sim.now),
    )
    sim.run()
    assert sent[0] < delivered[0]


def test_intra_node_message_bypasses_fabric():
    sim = Simulator()
    net = _net(sim)
    done = []
    net.send(2, 2, 64 * KB, on_delivered=lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 1
    assert net.switch(0).stats.arrivals == 0  # nothing hit the switch


def test_in_flight_tracking():
    sim = Simulator()
    net = _net(sim)
    net.send(0, 1, 1 * KB, on_delivered=lambda: None)
    assert net.in_flight == 1
    sim.run()
    assert net.in_flight == 0


def test_counters():
    sim = Simulator()
    net = _net(sim)
    net.send(0, 1, 3 * KB, on_delivered=lambda: None)
    net.send(1, 2, 2 * KB, on_delivered=lambda: None)
    assert net.messages_sent == 2
    assert net.bytes_sent == 5 * KB


def test_negative_size_rejected():
    sim = Simulator()
    net = _net(sim)
    with pytest.raises(ConfigurationError):
        net.send(0, 1, -1, on_delivered=lambda: None)
    with pytest.raises(ConfigurationError):
        net.send(0, 1, float("nan"), on_delivered=lambda: None)


def test_concurrent_senders_contend_for_fabric():
    """Ten simultaneous senders to one switch serialize through the fabric."""
    sim = Simulator()
    net = _net(sim, nodes=11)
    times = []
    for src in range(10):
        net.send(src, 10, 1 * KB, on_delivered=lambda: times.append(sim.now))
    sim.run()
    assert len(times) == 10
    # With a 0.8µs deterministic service the last delivery reflects queueing:
    # at least 10 services back to back.
    assert max(times) >= 10 * 0.8 * US


def test_messages_between_same_pair_deliver_in_order():
    sim = Simulator()
    net = _net(sim)
    order = []
    for tag in range(5):
        net.send(0, 1, 2 * KB, on_delivered=(lambda t=tag: order.append(t)))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_fat_tree_cross_leaf_traverses_three_fabrics():
    sim = Simulator()
    topo = LeafSpineTopology(leaf_count=2, nodes_per_leaf=2, spine_count=1)
    config = NetworkConfig(switch_mode="central", fabric_service=DeterministicService(1 * US))
    net = InterconnectNetwork(sim, topo, config, RandomStreams(0))
    done = []
    net.send(0, 3, 1 * KB, on_delivered=lambda: done.append(sim.now))
    sim.run()
    assert len(done) == 1
    assert net.switches[0].stats.served == 1  # src leaf
    assert net.switches[2].stats.served == 1  # root
    assert net.switches[1].stats.served == 1  # dst leaf


def test_fat_tree_same_leaf_single_hop():
    sim = Simulator()
    topo = LeafSpineTopology(leaf_count=2, nodes_per_leaf=2, spine_count=1)
    config = NetworkConfig(switch_mode="central", fabric_service=DeterministicService(1 * US))
    net = InterconnectNetwork(sim, topo, config, RandomStreams(0))
    net.send(0, 1, 1 * KB, on_delivered=lambda: None)
    sim.run()
    assert net.switches[0].stats.served == 1
    assert net.switches[2].stats.served == 0


def test_reset_stats_clears_all_switches():
    sim = Simulator()
    net = _net(sim)
    net.send(0, 1, 1 * KB, on_delivered=lambda: None)
    sim.run()
    assert net.switch(0).stats.served > 0
    net.reset_stats()
    assert net.switch(0).stats.served == 0
