"""Extension: probing a two-level fat tree instead of a single switch.

The paper's methodology is scoped to one leaf switch, but nothing in the
probe design is single-switch specific.  This example builds a 2-leaf fat
tree, confines ring interference to the *second* leaf, and shows that probe
pairs on the quiet leaf see near-idle latencies while pairs on the loaded
leaf see the congestion — contention is local to the switch that carries
it, the locality the paper's related-work topology discussion anticipates.

Run:  python examples/fat_tree_probing.py
"""

from repro.cluster import ExplicitPlacement, Machine, PerSocketPlacement
from repro.config import MachineConfig, NodeConfig
from repro.core.measurement import LatencyCollector
from repro.mpi import MPIWorld
from repro.network import LeafSpineTopology
from repro.units import MS, US
from repro.workloads import CompressionB, CompressionConfig, ImpactB


def main() -> None:
    topology = LeafSpineTopology(leaf_count=2, nodes_per_leaf=9, spine_count=2)
    config = MachineConfig(node_count=18, node=NodeConfig(), seed=11)
    machine = Machine(config, topology)

    print(f"fat tree: {topology.leaf_count} leaves x {topology.nodes_per_leaf} nodes")
    print(
        "  oversubscription : "
        f"{topology.nodes_per_leaf / topology.spine_count:.1f}:1 "
        "(node links per leaf over spine uplinks)"
    )

    # Probe everywhere: pairs form between node positions (0,1), (2,3), ...
    # so every pair's traffic stays on its own leaf.
    collector = LatencyCollector()
    probe = ImpactB(collector, interval=0.25 * MS)
    probe_world = MPIWorld.create(machine, PerSocketPlacement(1), name="impactb")
    probe_world.launch(probe)

    # Interference confined to the second leaf (nodes 9..17): pick one free
    # core per socket on exactly those nodes.
    cores = []
    for node in machine.nodes[9:]:
        for socket in range(config.node.sockets):
            cores.append(node.free_cores_on_socket(socket)[0])
    comp = CompressionB(CompressionConfig(4, 10, 2.5e5))
    comp_world = MPIWorld.create(machine, ExplicitPlacement(cores), name="comp")
    comp_world.launch(comp)

    machine.sim.run(until=0.03)

    quiet, loaded = [], []
    for latency, rank in zip(collector.values(), collector.ranks()):
        node = probe_world.node_of(int(rank))
        (quiet if node < 9 else loaded).append(latency)

    leaf0 = sum(quiet) / len(quiet) / US
    leaf1 = sum(loaded) / len(loaded) / US
    print("\nwith interference confined to leaf 1:")
    print(f"  probe latency, leaf-0 pairs: {leaf0:.2f}µs  (quiet)")
    print(f"  probe latency, leaf-1 pairs: {leaf1:.2f}µs  (loaded)")
    print(
        "  switch utilizations: "
        + ", ".join(
            f"s{i}={machine.network.true_utilization(i) * 100:.0f}%"
            for i in range(topology.switch_count)
        )
    )


if __name__ == "__main__":
    main()
