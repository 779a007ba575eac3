"""Golden event order: a fixed set of small simulations, hashed to one digest.

Every product of the packet-level engine depends on the order in which
callbacks with side effects run: switch service draws, round-robin
arbitration at NICs and output ports, message matching, and which rank
resumes first when several wake at the same instant.  This test runs a
small deterministic set of simulations and asserts one SHA-256 over
everything they produce, including the order in which ranks resume.

Kernel bookkeeping that leaves that order alone (dropping a heap entry that
does nothing, merging two entries with equal times and adjacent sequence
numbers) must leave the digest unchanged.  Anything that reorders side
effects moves it.  Event counts are deliberately not hashed: they are what
such bookkeeping changes.

The set covers an FFTW alltoall, a MILC halo exchange plus allreduce, a
CompressionB ring under ImpactB latency probes, a rendezvous exchange, a
``waitall`` whose requests are already complete, on-node shared-memory
messages, a lossy leaf-spine fabric (retransmits, cross-leaf routes), and
kernel-level waits that all wake at one instant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Any, Callable, Dict, List

from repro.cluster import Machine, PerSocketPlacement, small_test_config
from repro.config import LinkFaultConfig, TopologyConfig
from repro.core.measurement import LatencyCollector
from repro.mpi import MPIWorld
from repro.sim import Simulator
from repro.units import KB, US
from repro.workloads import FFTW, MILC, CompressionB, ImpactB, looped
from repro.workloads.probes.compressionb import CompressionConfig

GOLDEN_SHA256 = "59e588c044e2a3368d27aadd3d548830f854840be5bb515850adff82fdcfaa0f"


def _logged(factory: Callable, log: List[Any]) -> Callable:
    """Wrap a rank factory so every resume of the rank is logged in order.

    The wrapper yields exactly what the wrapped coroutine yields, so the
    simulation is unchanged; the log records (job, rank, time) each time
    the kernel resumes the rank.
    """

    def build(ctx):
        inner = factory(ctx)
        value = None
        while True:
            try:
                target = inner.send(value)
            except StopIteration as stop:
                log.append([ctx.world.name, ctx.rank, "end", ctx.now])
                return stop.value
            value = yield target
            log.append([ctx.world.name, ctx.rank, ctx.now])

    return build


def _fabric_state(machine: Machine) -> Dict[str, Any]:
    """Switch, port, NIC and link counters: what arbitration order decides."""
    network = machine.network
    # Uplink ports are keyed by id() of the next switch; hash its name.
    names = {id(switch): switch.name for switch in network.switches}
    switches = []
    for switch in network.switches:
        stats = switch.stats
        ports = sorted(
            (names[key[1]] if isinstance(key, tuple) else str(key), port.served,
             port.busy_time)
            for key, port in getattr(switch, "_ports", {}).items()
        )
        switches.append(
            [stats.arrivals, stats.served, stats.busy_time, stats.wait_sum,
             stats.service_sum, stats.queue_peak, ports]
        )
    return {
        "now": machine.sim.now,
        "switches": switches,
        "nics": [[nic.packets_injected, nic.bytes_injected] for nic in network.nics],
        "links": network.link_report(),
        "ledger": [network.messages_sent, network.bytes_sent, network.packets_offered,
                   network.packets_delivered, network.packets_dropped,
                   network.packets_corrupted],
    }


def _finished_job(machine: Machine, job, log: List[Any]) -> Dict[str, Any]:
    machine.sim.run_until_event(job.done, max_events=2_000_000)
    return {
        "elapsed": job.elapsed,
        "ends": [process.terminated.trigger_time for process in job.processes],
        "results": [repr(result) for result in job.results()],
        "log": log,
        "fabric": _fabric_state(machine),
    }


def _run_app(app, seed: int, config=None) -> Dict[str, Any]:
    machine = Machine(config or small_test_config(seed=seed))
    log: List[Any] = []
    world = MPIWorld.create(machine, app.preferred_placement(machine.config), name=app.name)
    return _finished_job(machine, world.launch(_logged(app, log)), log)


def fftw_alltoall() -> Dict[str, Any]:
    return _run_app(FFTW(iterations=2, pack_compute=5e-5), seed=3)


def milc_halo_allreduce() -> Dict[str, Any]:
    return _run_app(MILC(iterations=3, compute_per_iter=5e-5), seed=5)


def compression_ring_under_probes() -> Dict[str, Any]:
    machine = Machine(small_test_config(seed=7))
    collector = LatencyCollector()
    log: List[Any] = []
    probe = ImpactB(collector, interval=40 * US)
    ring = CompressionB(CompressionConfig(partners=2, messages=2, sleep_cycles=2.0e4))
    for name, workload in (("impactb", probe), ("compressionb", ring)):
        world = MPIWorld.create(machine, PerSocketPlacement(1), name=name)
        world.launch(_logged(looped(workload), log))
    machine.sim.run(until=1.5e-3, max_events=2_000_000)
    return {
        "latencies": [collector.times().tolist(), collector.values().tolist(),
                      collector.ranks().tolist()],
        "log": log,
        "fabric": _fabric_state(machine),
    }


def rendezvous_exchange() -> Dict[str, Any]:
    """Messages on both sides of the eager threshold, in both directions."""
    machine = Machine(small_test_config(seed=11))
    log: List[Any] = []
    world = MPIWorld.create(
        machine, PerSocketPlacement(1), name="rdv", eager_threshold=16 * KB
    )
    partner = {0: 2, 2: 0, 1: 3, 3: 1, 4: 6, 6: 4, 5: 7, 7: 5}

    def workload(ctx):
        other = partner[ctx.rank]
        for round_index in range(3):
            big = 24 * KB * (round_index + 1)
            recvs = [ctx.comm.irecv(other, tag=round_index * 4 + t) for t in range(2)]
            sends = [
                ctx.comm.isend(other, big, tag=round_index * 4, payload=("big", ctx.rank)),
                ctx.comm.isend(other, 1 * KB, tag=round_index * 4 + 1, payload=ctx.rank),
            ]
            if ctx.rank % 2:
                yield from ctx.compute(3 * US * (round_index + 1))
            received = yield from ctx.comm.waitall(recvs + sends)
            yield from ctx.comm.allreduce(len(received), nbytes=8)
        return received[:2]

    return _finished_job(machine, world.launch(_logged(workload, log)), log)


def waitall_on_completed_requests() -> Dict[str, Any]:
    """Requests complete long before ``waitall``; then a mixed batch."""
    machine = Machine(small_test_config(seed=13))
    log: List[Any] = []
    world = MPIWorld.create(machine, PerSocketPlacement(2), name="done")

    def workload(ctx):
        size = ctx.size
        right, left = (ctx.rank + 1) % size, (ctx.rank - 1) % size
        early = [ctx.comm.irecv(left, tag=1), ctx.comm.isend(right, 2 * KB, tag=1,
                                                             payload=ctx.rank)]
        yield from ctx.compute(200 * US)  # everything above has completed
        first = yield from ctx.comm.waitall(early)
        # Same instant: one batch already complete, one still in flight.
        done = [ctx.comm.irecv(left, tag=2), ctx.comm.isend(right, 512, tag=2)]
        yield from ctx.compute(50 * US)
        late = [ctx.comm.irecv(right, tag=3), ctx.comm.isend(left, 3 * KB, tag=3)]
        second = yield from ctx.comm.waitall(done + late)
        empty = yield from ctx.comm.waitall([])
        return first, second, empty

    return _finished_job(machine, world.launch(_logged(workload, log)), log)


def shared_memory_messages() -> Dict[str, Any]:
    """Every rank messages its node neighbours: no NIC, no switch."""
    machine = Machine(small_test_config(seed=17))
    log: List[Any] = []
    world = MPIWorld.create(machine, PerSocketPlacement(2), name="shm")

    def workload(ctx):
        peers = world.ranks_on_node(ctx.node_id)
        position = peers.index(ctx.rank)
        for step in range(1, len(peers)):
            dest = peers[(position + step) % len(peers)]
            source = peers[(position - step) % len(peers)]
            value = yield from ctx.comm.sendrecv(dest, 4 * KB * step, source, tag=step,
                                                 payload=(ctx.rank, step))
            request = ctx.comm.isend(dest, 0, tag=100 + step)
            if ctx.rank % 2:
                yield from ctx.comm.wait(request)
                yield from ctx.comm.recv(source, tag=100 + step)
            else:
                yield from ctx.comm.recv(source, tag=100 + step)
                yield from ctx.comm.wait(request)
        return value

    return _finished_job(machine, world.launch(_logged(workload, log)), log)


def lossy_leaf_spine() -> Dict[str, Any]:
    base = small_test_config(seed=19)
    config = replace(
        base,
        topology=TopologyConfig(kind="leaf-spine", leaf_count=2, nodes_per_leaf=2,
                                spine_count=2, ecmp_seed=4),
        network=replace(base.network, link_faults=(
            LinkFaultConfig(link="*->spine0", drop_probability=0.15),
            LinkFaultConfig(link="spine1->*", corrupt_probability=0.15),
        )),
    )
    return _run_app(MILC(iterations=3, compute_per_iter=5e-5, halo_bytes=24 * KB),
                    seed=19, config=config)


def kernel_same_instant_mix() -> Dict[str, Any]:
    """Sleeps, events, AllOf, AnyOf and joins that all wake at one instant.

    Message timings above are rarely equal, so most of their orderings are
    decided by time alone.  Here every wakeup lands on a whole second, and
    the order of entries with equal times is the only thing that decides
    the log.
    """
    sim = Simulator()
    log: List[Any] = []
    gates = [sim.event(f"gate{index}") for index in range(4)]
    # Registered before any process runs: ahead of the direct waiters.
    early = sim.all_of(gates[:2], name="early")

    def opener(index):
        for step in range(3):
            yield 1.0
            log.append(["opener", index, step, sim.now])
        gates[index].succeed(index)
        yield 0.0
        log.append(["opener", index, "after", sim.now])
        return index

    def waiter(name, target):
        value = yield target
        log.append([name, repr(value), sim.now])
        yield 0.0
        log.append([name, "next", sim.now])
        yield 1.0
        log.append([name, "later", sim.now])

    def late_all_of(name, children, delay):
        yield delay
        # Built mid-run: some children may already have fired.
        yield from waiter(name, sim.all_of(children(), name=name))

    openers = [sim.spawn(opener(index), f"opener{index}") for index in range(4)]
    sim.spawn(waiter("direct0", gates[0]), "direct0")
    sim.spawn(waiter("early", early), "early")
    sim.spawn(waiter("direct1", gates[1]), "direct1")
    sim.spawn(waiter("any", sim.any_of(gates[2:])), "any")
    sim.spawn(late_all_of("mid23", lambda: gates[2:], 0.5), "mid23")
    sim.spawn(waiter("direct3", gates[3]), "direct3")
    sim.spawn(late_all_of("after_all", lambda: gates, 3.0), "after_all")
    sim.spawn(late_all_of("pre0_3", lambda: [gates[0], gates[3]], 3.0), "pre0_3")
    sim.spawn(waiter("join1", openers[1]), "join1")
    sim.spawn(waiter("joined_all", sim.all_of([p.terminated for p in openers])), "joined")
    sim.run()
    return {"log": log, "now": sim.now}


SCENARIOS = {
    "fftw_alltoall": fftw_alltoall,
    "milc_halo_allreduce": milc_halo_allreduce,
    "compression_ring_under_probes": compression_ring_under_probes,
    "rendezvous_exchange": rendezvous_exchange,
    "waitall_on_completed_requests": waitall_on_completed_requests,
    "shared_memory_messages": shared_memory_messages,
    "lossy_leaf_spine": lossy_leaf_spine,
    "kernel_same_instant_mix": kernel_same_instant_mix,
}


def golden_document() -> Dict[str, Any]:
    return {name: scenario() for name, scenario in SCENARIOS.items()}


def golden_digest() -> str:
    text = json.dumps(golden_document(), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_event_order_matches_golden_digest():
    assert golden_digest() == GOLDEN_SHA256


if __name__ == "__main__":  # print the digest, e.g. after a deliberate change
    print(golden_digest())
