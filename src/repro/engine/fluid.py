"""The fluid engine: flow-level fixed points over per-link demand.

The third engine tier.  Packet-level simulation (``sim``) is exact but its
event count grows with offered load × nodes; the closed-form ``analytic``
tier is instant but only models a single switch.  This engine sits between
them: it never simulates a packet, yet it models the whole fabric — every
switch and every directed inter-switch link is a fluid M/G/1 resource whose
utilization is solved from the workload demand matrices the
:mod:`repro.scenario` seam produces.

For each active workload *w* the engine folds its
:class:`~repro.scenario.DemandMatrix` onto the fabric
(:meth:`~repro.scenario.ScenarioSpec.fold`, ECMP-aware) and solves the
coupled fixed point

    ρ_r(w)  = busy_r(w) / (T_w · ports_r)          for every resource r
    T_w     = compute + period + serialization/(bandwidth share)
              + blocking latencies · hop delay_w

where the hop delay composes the uncontended path (one switch service per
hop, one cable latency per link) with the Pollaczek–Khinchine waiting time
at each resource, weighted by how often *w*'s packets queue there.  On a
single switch every formula collapses to the analytic engine's — the two
tiers agree to solver precision on the 18-node overlap, so the analytic
tier's validated tolerance bands transfer.  On fabrics the per-resource
treatment captures what the aggregate single-switch algebra cannot: leaf
hotspots, spine dilution, and multi-hop probe paths.

The products, the joint solve and the telemetry are
:class:`~repro.engine.analytic.ClosedFormEngine`'s, shared with the
analytic tier; this module keeps the fabric view, the per-resource load and
the round-time bisection.

Cost is O(resources) per solver iteration — independent of traffic volume
and duration — so 512- and 1024-node campaigns finish in seconds where the
DES would run for hours.  Everything is deterministic (no RNG; histogram
shapes from lognormal quantiles), so fluid products are bit-identical
across re-runs, and the degenerate one-leaf fabric reproduces single-switch
fluid products bit-for-bit.

Validity mirrors the analytic tier: Poisson arrivals, steady state, and no
resource at or beyond :data:`FluidEngine.max_utilization` — outside that
the engine raises :class:`~repro.errors.AnalyticModelError` naming the
saturated switch or link instead of extrapolating.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

import numpy as np

from ..config import MachineConfig
from ..errors import AnalyticModelError
from ..queueing import (
    ServiceEstimate,
    pk_waiting_times,
    sojourn_from_utilization,
    utilization_from_sojourn,
)
from ..scenario import ResourceDemand, ScenarioSpec
from ..workloads import Workload
from ..workloads.traffic import TrafficSummary
from .analytic import ClosedFormEngine, SwitchModel
from .base import EngineCapabilities

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiments.pipeline import ExperimentDescriptor

__all__ = ["FluidEngine"]


class _FluidLoad:
    """One workload's folded demand as flat per-resource vectors.

    Resources are indexed ``0..S-1`` for switches followed by the fabric's
    directed links in sorted-name order.  ``busy`` is the busy-seconds per
    workload round each resource absorbs; ``queue_share`` is the fraction
    of the workload's packets that queue at each resource (endpoint
    delivery for switches, uplink-port serialization for links) — the
    weights composing per-resource waiting times into the workload's
    expected per-message queueing delay.
    """

    def __init__(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        demand: ResourceDemand,
        link_index: Dict[str, int],
        resource_count: int,
    ) -> None:
        self.summary = summary
        self.busy = np.zeros(resource_count)
        self.queue_share = np.zeros(resource_count)
        switches = len(demand.switch_bytes)
        self.busy[:switches] = model.busy(demand.switch_bytes, demand.switch_packets)
        total_packets = demand.total_packets
        if total_packets > 0:
            self.queue_share[:switches] = demand.delivered_packets / total_packets
        for name, nbytes in demand.link_bytes.items():
            index = link_index[name]
            npackets = demand.link_packets[name]
            self.busy[index] = model.busy(nbytes, npackets)
            if total_packets > 0:
                self.queue_share[index] = npackets / total_packets
        # Every route is a switch chain, so links-per-packet == visits - 1;
        # both are the extra hops beyond the analytic single-switch path.
        self.extra_hops = demand.switch_visits_per_packet() - 1.0

    def rho(self, round_time: float, ports: np.ndarray) -> np.ndarray:
        """Own per-resource utilization at a given round time."""
        return self.busy / (round_time * ports)


class _FluidState:
    """Per-descriptor fabric view: scenario spec + resource indexing.

    Resource ids are switches ``0..S-1`` followed by directed links in
    sorted-name order — the flat space every :class:`_FluidLoad` vector and
    every utilization vector lives in.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.spec = ScenarioSpec.from_machine(config)
        self.model = SwitchModel(config)
        self.link_latency = config.network.link_latency
        switches = self.spec.switch_count
        names = self.spec.link_names()
        self.link_index: Dict[str, int] = {
            name: switches + offset for offset, name in enumerate(names)
        }
        self.resource_count = switches + len(names)
        self.ports = np.ones(self.resource_count)
        self.ports[:switches] = self.spec.switch_ports()
        if self.model.size_dependent is False:
            # Central-fabric mode: the denominator is the server pool.
            self.ports[:switches] = self.model.ports
        self._names = [
            self.spec.topology.switch_name(i)
            if hasattr(self.spec.topology, "switch_name")
            else f"switch{i}"
            for i in range(switches)
        ] + list(names)

    def resource_name(self, index: int) -> str:
        return self._names[index]

    def probe_queue_resources(self, route: Tuple[int, ...]) -> List[int]:
        """Resource ids where a probe packet on ``route`` can queue.

        Cross-leaf: the source leaf's uplink port, the spine's downlink
        port (both link resources), then delivery at the destination leaf.
        Same-leaf (and single switch): just the delivery port.  The spine
        in the route is a representative — the uniform ECMP split loads
        every spine equally, so any choice reads the same utilizations.
        """
        if len(route) == 1:
            return [route[0]]
        topology = self.spec.topology
        resources: List[int] = []
        for hop in range(len(route) - 1):
            src, dst = route[hop], route[hop + 1]
            name = f"{topology.switch_name(src)}->{topology.switch_name(dst)}"
            resources.append(self.link_index[name])
        resources.append(route[-1])
        return resources


def _max_abs(delta: np.ndarray) -> float:
    return float(np.abs(delta).max())


class FluidEngine(ClosedFormEngine):
    """Answers experiment descriptors from per-resource fluid fixed points.

    Shares the analytic tier's validity ceiling and bandwidth-share floor so
    the two engines refuse and degrade identically where their domains
    overlap; see the module docstring for the model.
    """

    name = "fluid"
    _state = _FluidState
    #: A joint step's size: the largest change at any resource.
    _norm = staticmethod(_max_abs)

    def capabilities(self) -> EngineCapabilities:
        """Any healthy fabric, any size: both topologies, no link faults.

        Faults need packet-level loss/retransmit dynamics the fluid
        approximation does not model; the simulation engine keeps those.
        """
        return EngineCapabilities(
            topologies=("single", "leaf-spine"),
            fault_kinds=(),
            summary=(
                "flow-level fluid fixed point per switch/link; "
                "scales to 1000+ nodes"
            ),
        )

    # ------------------------------------------------------------------
    # Workload loads
    # ------------------------------------------------------------------
    @staticmethod
    def _load(state: _FluidState, workload: Workload) -> _FluidLoad:
        summary = workload.traffic(state.config)
        matrix = state.spec.demand_matrix(
            summary, workload.demand_weights(state.config)
        )
        return _FluidLoad(
            state.model,
            summary,
            state.spec.fold(matrix),
            state.link_index,
            state.resource_count,
        )

    @staticmethod
    def _summary(load: _FluidLoad) -> TrafficSummary:
        return load.summary

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def _round_time(
        self, state: _FluidState, load: _FluidLoad, mean_packet: float
    ) -> Callable[[np.ndarray, np.ndarray], float]:
        """One workload's round time ``T(rho_total, rho_own)`` on the fabric.

        Every term that does not depend on the utilization state is
        computed here once per solve, with the buffers the returned
        function reuses; that function evaluates the rest in the original
        float-operation order.  The single-switch specialization of every
        term is the analytic engine's ``_round_time``: with one resource the
        bottleneck share is ``1 - rho_external``, ``extra_hops`` is zero,
        and the queue-share vector is the single delivery port.
        """
        model = state.model
        summary = load.summary
        touched = load.busy > 0.0
        any_touched = bool(touched.any())
        masked = np.full(state.resource_count, -1.0)  # untouched stay -1
        waits = np.empty(state.resource_count)
        service = model.packet_service(mean_packet)
        fixed_hop = model.idle_one_way(mean_packet) + load.extra_hops * (
            service + state.link_latency
        )
        head = summary.compute + summary.period

        def round_time(rho_total: np.ndarray, rho_own: np.ndarray) -> float:
            if any_touched:
                np.copyto(masked, rho_total, where=touched)
                bottleneck = int(masked.argmax())
                rho_external = rho_total[bottleneck] - rho_own[bottleneck]
            else:
                rho_external = 0.0
            share = max(1.0 - rho_external, self.min_bandwidth_share)
            serialization = summary.blocking_bytes / (model.port_bandwidth * share)
            # pk_waiting_times is looked up through this module on every call
            # (tracers patch it), and the dot product spans every resource:
            # a shorter one would sum in a different order.
            waiting = float(
                load.queue_share
                @ pk_waiting_times(
                    rho_total, service, model.service_variance, out=waits
                )
            )
            return head + serialization + summary.blocking_latencies * (
                fixed_hop + waiting
            )

        return round_time

    def _solve_round(
        self,
        state: _FluidState,
        load: _FluidLoad,
        rho_external: np.ndarray,
        mean_packet: float,
        label: str,
    ) -> float:
        """Steady-state round time under a fixed external utilization field.

        Bisects ``T - f(T)``, where ``f(T)`` is the round time at
        ``ρ = ρ_ext + busy/(T·ports)``: the workload's whole utilization
        *vector* scales with ``1/T``, so the unknown is the round time.  A
        longer round lowers every waiting time, but ``f`` is not monotone:
        the bandwidth share follows the most-utilized touched resource, and
        when a longer round moves that argmax to a resource with more
        external load, the share drops and ``f`` jumps up.  (On Cab's
        switch figures, two touched resources with ``ρ_ext = (0.5, 0)``,
        busy ``(1e-6, 4e-5)`` s and 1e6 blocking bytes: ``T - f(T)`` falls
        from −1.09e-4 to −2.94e-4 between ``T`` = 77.5 and 78.2 µs.)  The
        bisection still ends at a sign change of ``T - f(T)``, from the
        bracket it grows here, and a step that leaves ``(low, high)``
        unchanged ends it early.  Without monotonicity no guessed bracket
        is known to be the one the bisection reaches, so, unlike the
        analytic engine's, this solve has no warm start.
        """
        round_time = self._round_time(state, load, mean_packet)
        idle = round_time(rho_external, np.zeros_like(rho_external))
        if not load.busy.any():
            return idle
        busy = load.busy
        ports = state.ports
        rho_own = np.empty_like(busy)
        rho_total = np.empty_like(busy)

        def offered(period: float) -> float:
            # load.rho(period, ports) and ρ_ext + ρ_own, into the solve's buffers
            np.multiply(period, ports, out=rho_own)
            np.divide(busy, rho_own, out=rho_own)
            np.add(rho_external, rho_own, out=rho_total)
            return round_time(rho_total, rho_own)

        low = idle
        high = max(offered(low), low)
        for _ in range(200):
            if high - offered(high) >= 0.0:
                break
            high *= 2.0
        else:  # pragma: no cover - Wq clamping keeps f bounded
            raise AnalyticModelError(
                f"fluid model saturated for {label!r}: offered load exceeds "
                "fabric capacity (use --engine sim for this experiment)"
            )
        steps = 0
        for steps in range(1, self._bisection_steps + 1):
            mid = 0.5 * (low + high)
            if mid - offered(mid) < 0.0:
                if low == mid:
                    break
                low = mid
            else:
                if high == mid:
                    break
                high = mid
        self._solve_count += 1
        self._iteration_count += steps
        return 0.5 * (low + high)

    def _best_response(self) -> Callable[..., np.ndarray]:
        """Solving a workload's round time pins its whole utilization vector."""
        solve_round = self._solve_round

        def respond(state, load, rho_external, mean_packet, label):
            period = solve_round(state, load, rho_external, mean_packet, label)
            return load.rho(period, state.ports)

        return respond

    @staticmethod
    def _zero(state: _FluidState) -> np.ndarray:
        return np.zeros(state.resource_count)

    def _check_validity(
        self, state: _FluidState, rho_total: np.ndarray, label: str
    ) -> None:
        """The ceiling applies at the most-loaded switch or link."""
        worst = int(np.argmax(rho_total))
        super()._check_validity(
            state, rho_total[worst], label, f" at {state.resource_name(worst)}"
        )

    def _solve(
        self,
        state: _FluidState,
        load: _FluidLoad,
        mean_packet: float,
        label: str,
    ) -> Tuple[float, np.ndarray]:
        """``(round_time, rho_vector)`` equilibrium of one lone workload."""
        period = self._solve_round(
            state, load, self._zero(state), mean_packet, label
        )
        rho = load.rho(period, state.ports)
        self._check_validity(state, rho, label)
        return period, rho

    def _interfered_round_time(
        self,
        state: _FluidState,
        load: _FluidLoad,
        rho_measured: np.ndarray,
        rho_other: np.ndarray,
        mean_packet: float,
    ) -> float:
        round_time = self._round_time(state, load, mean_packet)
        return round_time(rho_measured + rho_other, rho_measured)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def calibration(self, descriptor: "ExperimentDescriptor") -> dict:
        """Idle probe-path estimate, averaged over the probe's pair paths.

        Single-hop pairs see the analytic engine's idle one-way figure;
        pairs whose path crosses a spine add one switch service and one
        cable latency per extra hop, and their variance stacks per hop.
        On a single switch (or the degenerate one-leaf fabric) every pair
        is single-hop and this is bit-identical to the analytic product.
        """
        state = _FluidState(descriptor.machine_config)
        settings = descriptor.settings
        model = state.model
        probe_bytes = 1024  # ImpactB's single-packet probe message
        base = model.idle_one_way(probe_bytes)
        extra = model.packet_service(probe_bytes) + state.link_latency
        mean = 0.0
        variance = 0.0
        minimum = math.inf
        total = 0
        for count, route in state.spec.probe_pair_paths():
            hops = len(route)
            path_mean = base + (hops - 1) * extra
            mean += count * path_mean
            variance += count * hops * model.service_variance
            minimum = min(minimum, path_mean - hops * model.service_mean)
            total += count
        if total == 0:  # single node: no probe pairs, fall back to one hop
            mean, variance = base, model.service_variance
            minimum = model.deterministic_one_way(probe_bytes)
        else:
            mean /= total
            variance /= total
        count = self._probe_count(
            settings, state.config, settings.calibration_duration
        )
        return ServiceEstimate(
            mean=mean, variance=variance, minimum=minimum, sample_count=count
        ).to_dict()

    @staticmethod
    def _probe_utilization(state: _FluidState, rho_total: np.ndarray) -> float:
        """Congestion the probe population samples, as one utilization.

        Each probe pair's path is a series of queueing resources (uplink
        port, spine downlink port, destination delivery port — just the
        delivery port for single-hop pairs); a probe packet waits wherever
        any of them is busy, so the pair sees effective utilization
        ``1 - Π(1 - ρ_r)``.  Pair sojourns are averaged P–K-forward and the
        mean is mapped back through the exact P–K inversion, so the
        reported utilization round-trips through the pipeline's downstream
        estimator and equals ρ exactly on a single switch.
        """
        rate = 1.0  # cancels in the forward/backward round trip below
        variance = 0.0
        weighted = 0.0
        total = 0
        for count, route in state.spec.probe_pair_paths():
            rho_path = 1.0 - math.prod(
                1.0 - min(max(float(rho_total[r]), 0.0), 0.999)
                for r in state.probe_queue_resources(route)
            )
            weighted += count * sojourn_from_utilization(rho_path, rate, variance)
            total += count
        if total == 0:
            return 0.0
        return utilization_from_sojourn(weighted / total, rate, variance)

    @staticmethod
    def _switch_utilization(rho_total: np.ndarray) -> float:
        return float(rho_total[0])
