"""Invariant tests for the per-link fault model.

The fault model is only trustworthy if the simulator keeps honest books:
every packet the NICs inject must end up in exactly one ledger column
(delivered, dropped, or corrupted), every loss must be matched by exactly
one retransmit, and a flapped link must deliver *nothing* inside its
down-window.  These tests assert all of that against the fabric_stats
counters rather than against callbacks alone, so double-counting or silent
packet leaks cannot hide.
"""

import time

import pytest

from repro.config import LinkFaultConfig, NetworkConfig
from repro.network import (
    FabricLink,
    InterconnectNetwork,
    LeafSpineTopology,
    packet_count,
    packetize,
)
from repro.sim import RandomStreams, Simulator
from repro.units import GB, KB, US


def _fabric(sim, faults=(), leaf_count=2, nodes_per_leaf=2, spine_count=2,
            seed=0, **overrides):
    topo = LeafSpineTopology(leaf_count, nodes_per_leaf, spine_count=spine_count)
    config = NetworkConfig(link_faults=tuple(faults), **overrides)
    return InterconnectNetwork(sim, topo, config, RandomStreams(seed))


def _cross_leaf_blast(sim, net, messages=30, nbytes=20 * KB):
    """Send ``messages`` cross-leaf messages; return (injected, delivered)."""
    done = []
    per_leaf = net.topology.nodes_per_leaf
    injected = 0
    for i in range(messages):
        src = i % per_leaf
        dst = per_leaf + (i % per_leaf)  # same offset on the other leaf
        net.send(src, dst, nbytes, on_delivered=lambda t=i: done.append(t),
                 flow=i)
        injected += packet_count(nbytes, net.config.mtu)
    sim.run()
    return injected, done


def _assert_ledger_balances(net, injected):
    # The conservation invariant: at drain every injection (original or
    # retransmit) was delivered clean, lost on a link, or rejected by the
    # receiver's CRC — and every loss/rejection spawned exactly one
    # retransmit, so clean deliveries equal the original packet count.
    assert net.in_flight == 0
    assert net.packets_offered == (
        net.packets_delivered + net.packets_dropped + net.packets_corrupted
    )
    assert net.retransmits_drop == net.packets_dropped
    assert net.retransmits_corrupt == net.packets_corrupted
    assert net.packets_delivered == injected
    # Per-link books balance too: everything a link accepted went somewhere.
    for link in net.links.values():
        stats = link.stats
        assert stats.attempted == stats.delivered + stats.corrupted + stats.dropped
        assert stats.flap_dropped <= stats.dropped


def test_healthy_fabric_has_a_clean_ledger():
    sim = Simulator()
    net = _fabric(sim)
    injected, done = _cross_leaf_blast(sim, net)
    assert len(done) == 30
    assert net.packets_dropped == 0
    assert net.packets_corrupted == 0
    assert net.retransmits_drop == net.retransmits_corrupt == 0
    _assert_ledger_balances(net, injected)
    assert all(not link.is_faulty for link in net.links.values())


def test_healthy_fabric_moves_at_least_5k_packets_per_second():
    # 4,000 cross-leaf 16 KB messages through the 2x2x2 fabric.  A loose
    # floor (about 33 k packets/s on a 2-vCPU x86 host); only a gross
    # regression of the hop-by-hop path trips it.
    messages, nbytes = 4_000, 16 * KB
    sim = Simulator()
    net = _fabric(sim)
    done = []
    for i in range(messages):
        net.send(i % 2, 2 + i % 2, nbytes,
                 on_delivered=lambda: done.append(None), flow=i)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert len(done) == messages
    assert net.packets_dropped == 0
    assert net.packets_offered == messages * packet_count(nbytes, net.config.mtu)
    assert net.packets_offered / elapsed > 5_000


def test_packet_conservation_under_mixed_faults():
    # Drop AND corrupt on every fabric link: the stress case for the
    # ledger, because one packet can be corrupted upstream and then
    # dropped downstream on the same journey.
    sim = Simulator()
    net = _fabric(
        sim,
        faults=[LinkFaultConfig(link="*", drop_probability=0.05,
                                corrupt_probability=0.05)],
    )
    injected, done = _cross_leaf_blast(sim, net, messages=40)
    assert len(done) == 40, "reliable delivery must survive lossy links"
    assert net.packets_dropped > 0 and net.packets_corrupted > 0, (
        "fault probabilities this high must actually fire"
    )
    _assert_ledger_balances(net, injected)


def test_corrupted_packet_retransmitted_exactly_once_per_event():
    # Corruption only on the last inter-switch hop (spine->leaf), so every
    # corruption event reaches the endpoint and must trigger exactly one
    # retransmit: injections == originals + corruption events, no more.
    sim = Simulator()
    net = _fabric(
        sim,
        faults=[LinkFaultConfig(link="spine*->leaf*", corrupt_probability=0.2)],
    )
    injected, done = _cross_leaf_blast(sim, net, messages=40)
    assert len(done) == 40
    assert net.packets_dropped == 0
    assert net.packets_corrupted > 0
    assert net.retransmits_corrupt == net.packets_corrupted
    assert net.packets_offered == injected + net.packets_corrupted
    # Every endpoint CRC failure traces back to a spine->leaf link event.
    corrupting = sum(
        link.stats.corrupted
        for name, link in net.links.items()
        if name.startswith("spine")
    )
    assert corrupting == net.packets_corrupted
    _assert_ledger_balances(net, injected)


def test_dropped_packet_retransmitted_exactly_once_per_event():
    sim = Simulator()
    net = _fabric(
        sim,
        faults=[LinkFaultConfig(link="*->spine0", drop_probability=0.15)],
    )
    injected, done = _cross_leaf_blast(sim, net, messages=40)
    assert len(done) == 40
    assert net.packets_corrupted == 0
    assert net.packets_dropped > 0
    assert net.retransmits_drop == net.packets_dropped
    assert net.packets_offered == injected + net.packets_dropped
    assert sum(l.stats.dropped for l in net.links.values()) == net.packets_dropped
    _assert_ledger_balances(net, injected)


def test_flapped_link_delivers_zero_packets_inside_the_window():
    # Unit-level: a link with a down-window must deliver nothing whose
    # arrival falls inside it — including a packet transmitted *before*
    # the window that would land mid-flap.
    sim = Simulator()
    window = (10 * US, 20 * US)
    delivered, dropped = [], []
    link = FabricLink(
        sim,
        name="leaf0->spine0",
        bandwidth=5 * GB,
        latency=1 * US,
        deliver=lambda p: delivered.append(sim.now),
        on_drop=lambda p, reason: dropped.append((sim.now, reason)),
        down=(window,),
    )
    packets = packetize(0, 8 * KB, 2 * KB, src_node=0, dst_node=2)
    sim.schedule_at(0.0, link.transmit, packets[0])        # clean, arrives 1µs
    sim.schedule_at(9.5 * US, link.transmit, packets[1])   # in flight at flap
    sim.schedule_at(15 * US, link.transmit, packets[2])    # sent mid-window
    sim.schedule_at(25 * US, link.transmit, packets[3])    # clean again
    sim.run()
    assert not any(window[0] <= t < window[1] for t in delivered)
    assert delivered == [1 * US, 26 * US]
    assert [reason for _, reason in dropped] == ["flap", "flap"]
    assert link.stats.attempted == 4
    assert link.stats.delivered == 2
    assert link.stats.dropped == link.stats.flap_dropped == 2


def test_flap_recovery_through_the_network():
    # End-to-end: messages sent into a flap window keep retrying until the
    # window closes, and the ledger still balances.  Single spine so every
    # cross-leaf packet must cross the flapped cable.
    sim = Simulator()
    window = (0.0, 50 * US)
    net = _fabric(
        sim,
        faults=[LinkFaultConfig(link="leaf0->spine0", down=(window,))],
        spine_count=1,
    )
    done = []
    net.send(0, 2, 4 * KB, on_delivered=lambda: done.append(sim.now))
    sim.run(until=window[1])
    flapped = net.link("leaf0->spine0")
    assert flapped.stats.delivered == 0, "nothing crosses a down link"
    assert flapped.stats.flap_dropped > 0
    assert done == []
    sim.run()
    assert len(done) == 1 and done[0] > window[1]
    _assert_ledger_balances(net, 1)
    assert net.packets_dropped == flapped.stats.flap_dropped


def test_degraded_link_serializes_and_accrues_busy_time():
    # speed_factor < 1 turns the cable itself into a FIFO bottleneck: the
    # slow direction accrues busy_time, and the same traffic finishes
    # later than on a healthy fabric.
    def run(faults):
        sim = Simulator()
        net = _fabric(sim, faults=faults, spine_count=1)
        done = []
        for i in range(10):
            net.send(0, 2, 16 * KB, on_delivered=lambda: done.append(sim.now),
                     flow=i)
        sim.run()
        return net, max(done)

    healthy_net, healthy_finish = run([])
    slow_net, slow_finish = run(
        [LinkFaultConfig(link="leaf0->spine0", speed_factor=0.1)]
    )
    slow = slow_net.link("leaf0->spine0")
    assert slow.is_faulty and slow.effective_bandwidth == pytest.approx(
        0.1 * slow.bandwidth
    )
    assert slow.stats.busy_time > 0
    assert healthy_net.link("leaf0->spine0").stats.busy_time == 0
    assert slow_finish > healthy_finish
    _assert_ledger_balances(slow_net, 10 * packet_count(16 * KB, slow_net.config.mtu))


def test_faulted_fabric_replays_bit_identically():
    # Same seed, same sends: every counter and per-link stat must match
    # exactly across two independent builds — the property that makes a
    # lossy campaign a reproducible experiment rather than an anecdote.
    def run():
        sim = Simulator()
        net = _fabric(
            sim,
            faults=[LinkFaultConfig(link="*", drop_probability=0.04,
                                    corrupt_probability=0.04)],
            seed=123,
        )
        injected, done = _cross_leaf_blast(sim, net, messages=25)
        _assert_ledger_balances(net, injected)
        ledger = (
            net.packets_offered,
            net.packets_delivered,
            net.packets_dropped,
            net.packets_corrupted,
        )
        return ledger, {n: l.stats.to_dict() for n, l in net.links.items()}, sorted(done)

    assert run() == run()
