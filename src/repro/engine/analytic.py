"""The analytic engine: experiments answered by closed-form M/G/1 math.

:class:`ClosedFormEngine`, the layer it shares with the fluid engine, also
lives here.  Instead of simulating packets, this backend derives each
workload's offered load from its
:class:`~repro.workloads.traffic.TrafficSummary` and solves a small fixed
point per experiment:

    round time  T(ρ) = compute + period + serialization/(bandwidth share)
                       + blocking latencies · (idle hop + Wq(ρ))
    utilization ρ    = (busy seconds per round) / (T(ρ) · ports)

The busy-seconds numerator is exactly what the simulator's ground-truth
counter accumulates (wire serialization plus per-packet routing overhead,
averaged over ports), so the engine's ``true_utilization`` lives in the same
coordinate system as the simulator's.  Probe signatures are synthesized from
the Pollaczek–Khinchine forward map on the *calibration the descriptor
carries*, which makes the downstream P–K inversion recover the engine's ρ
exactly — the pipeline's queue models see self-consistent inputs either way.

The model assumes Poisson packet arrivals, steady state, and a stable,
non-saturated switch.  Outside that trust region — converged utilization at
or beyond :data:`ClosedFormEngine.max_utilization`, a non-convergent fixed
point, or a workload without a traffic summary — it raises
:class:`~repro.errors.AnalyticModelError` instead of extrapolating.

Everything here is deterministic: no RNG is consumed, and histogram shapes
come from lognormal quantiles (``statistics.NormalDist``), so analytic
products are reproducible byte-for-byte across runs and platforms.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..config import MachineConfig
from ..core.measurement import LatencyCollector, LatencyHistogram
from ..errors import AnalyticModelError, ExperimentError
from ..queueing import ServiceEstimate, pk_waiting_time, sojourn_from_utilization
from ..workloads import CompressionB, ImpactB, Workload
from ..workloads.traffic import TrafficSummary
from .base import EngineCapabilities, ExperimentEngine, register_engine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiments.pipeline import ExperimentDescriptor, PipelineSettings

__all__ = ["AnalyticEngine", "ClosedFormEngine", "SwitchModel"]

#: Histogram synthesis cap: quantile samples beyond this add no visible mass.
_MAX_SYNTH_SAMPLES = 4096

_STANDARD_NORMAL = NormalDist()

#: The bisection step a verified warm start resumes after.  Cells of this
#: level and their midpoints are exact in float64 (46 ≤ 52), so no step up
#: to it can end early, from either start.
_WARM_LEVEL = 46
_WARM_SCALE = float(2**_WARM_LEVEL)


class SwitchModel:
    """Closed-form view of one machine's switch fabric.

    Collapses the :class:`MachineConfig` into the handful of per-packet
    figures the M/G/1 algebra needs, honouring both switch modes:

    * ``output_queued`` — packets cost wire serialization at the port rate
      plus the stochastic routing overhead; the utilization denominator is
      the attached port count, matching
      :meth:`OutputQueuedSwitch.utilization`.
    * ``central`` — packets cost one size-independent fabric service;
      the denominator is the server count.
    """

    def __init__(self, config: MachineConfig) -> None:
        network = config.network
        self.config = config
        self.port_bandwidth = network.link_bandwidth
        if network.switch_mode == "central":
            self.ports = network.fabric_servers
            self.size_dependent = False
            self.service_mean = network.fabric_service.mean
            self.service_variance = network.fabric_service.variance
        else:
            self.ports = config.node_count
            self.size_dependent = True
            self.service_mean = network.port_overhead.mean
            self.service_variance = network.port_overhead.variance

    # ------------------------------------------------------------------
    def packet_service(self, nbytes: float) -> float:
        """Mean switch busy time one packet of ``nbytes`` causes."""
        if self.size_dependent:
            return nbytes / self.port_bandwidth + self.service_mean
        return self.service_mean

    def busy(self, nbytes, npackets):
        """Switch busy seconds ``npackets`` packets of ``nbytes`` in all cause.

        Takes floats or equal-shaped arrays (one entry per resource).
        """
        if self.size_dependent:
            return nbytes / self.port_bandwidth + npackets * self.service_mean
        return npackets * self.service_mean

    def idle_one_way(self, nbytes: float) -> float:
        """Uncontended one-way path latency for one ``nbytes`` packet."""
        network = self.config.network
        return (
            network.nic_overhead
            + nbytes / network.link_bandwidth
            + network.link_latency
            + self.packet_service(nbytes)
            + network.egress_latency
        )

    def deterministic_one_way(self, nbytes: float) -> float:
        """The idle path with the stochastic service term at its floor."""
        return self.idle_one_way(nbytes) - self.service_mean

    def waiting_time(self, utilization: float, mean_packet_bytes: float) -> float:
        """P–K mean queueing delay Wq at a port running at ``utilization``.

        Service moments come from the traffic's mean packet size plus the
        routing-overhead variance; ``utilization`` is clamped just below 1
        so the fixed-point iteration can pass transiently-unstable values.
        """
        rho = min(max(utilization, 0.0), 0.999)
        if rho == 0.0:
            return 0.0
        mean_service = self.packet_service(mean_packet_bytes)
        return pk_waiting_time(
            arrival_rate=rho / mean_service,
            service_rate=1.0 / mean_service,
            service_variance=self.service_variance,
        )


class ClosedFormEngine(ExperimentEngine):
    """Products, joint solve and telemetry shared by the closed-form engines.

    The analytic and fluid engines subclass it.  Each supplies its machine
    view (``_state``), a workload's load on it (``_load``, and ``_summary``
    for the traffic behind a load), the lone-workload ``_solve``, the joint
    solve's ``_best_response()``, ``_zero`` and ``_norm``, ``_calibration``,
    ``_interfered_round_time``, and the utilizations the probe samples and
    switch 0 reports.

    Attributes:
        max_utilization: validity ceiling — converged utilization at or
            above this raises :class:`AnalyticModelError` (the Poisson /
            steady-state assumptions have no business beyond it).
        min_bandwidth_share: floor on the (1 − ρ_ext) bandwidth share an
            interfered workload keeps, mirroring the round-robin port
            arbitration that never fully starves a flow.
    """

    max_utilization = 0.95
    min_bandwidth_share = 0.05
    _bisection_steps = 60
    _max_iterations = 500
    _tolerance = 1e-12
    _solve_count = 0
    _iteration_count = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self, descriptor: "ExperimentDescriptor") -> object:
        # Per-inner-solve counts accumulate on plain ints and flush to the
        # registry once per product: the inner solve runs tens of times per
        # product, and per-call registry traffic is measurable campaign
        # overhead (the ≤5% budget in benchmarks/test_perf_telemetry.py).
        self._solve_count = 0
        self._iteration_count = 0
        with telemetry.span(f"solve:{descriptor.kind}", "engine", engine=self.name):
            result = self._dispatch(descriptor)
        if telemetry.enabled():
            registry = telemetry.registry()
            registry.counter_inc(
                "engine.products", kind=descriptor.kind, engine=self.name
            )
            if self._solve_count:
                registry.counter_inc(
                    f"engine.{self.name}.solves", float(self._solve_count)
                )
                registry.counter_inc(
                    f"engine.{self.name}.solve_iterations",
                    float(self._iteration_count),
                )
        return result

    def _dispatch(self, descriptor: "ExperimentDescriptor") -> object:
        settings = descriptor.settings
        state = self._state(descriptor.machine_config)
        if descriptor.kind == "calibration":
            return self._calibration(state, settings)
        if descriptor.kind == "impact":
            return self._impact(state, settings, descriptor)
        if descriptor.kind == "comp_sig":
            return self._comp_sig(state, settings, descriptor)
        if descriptor.kind == "baseline":
            return self._baseline(state, descriptor.workload)
        if descriptor.kind == "degradation":
            comp = CompressionB(descriptor.comp_config)
            return self._slowdown(state, descriptor.workload, comp, descriptor.baseline)
        if descriptor.kind == "pair":
            return self._slowdown(
                state, descriptor.workload, descriptor.other, descriptor.baseline
            )
        raise ExperimentError(f"unknown descriptor kind {descriptor.kind!r}")

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def _solve_joint(
        self,
        state: Any,
        first: Any,
        second: Any,
        mean_packet: float,
        first_label: str,
        second_label: str,
    ) -> tuple:
        """Coupled equilibrium ``(rho_first, rho_second)`` of two workloads.

        Each workload's round time stretches under the *other's* converged
        utilization (not its isolated one — a co-runner under interference
        slows down and offers less load, which is exactly what keeps two
        heavy workloads below saturation in the simulator).  Damped
        Gauss–Seidel over the two monotone best-response curves.
        """
        respond = self._best_response()
        norm = self._norm
        rho_first = rho_second = self._zero(state)
        for iteration in range(1, self._max_iterations + 1):
            next_first = respond(state, first, rho_second, mean_packet, first_label)
            next_second = respond(state, second, next_first, mean_packet, second_label)
            residual = max(norm(next_first - rho_first), norm(next_second - rho_second))
            if residual <= self._tolerance:
                rho_first, rho_second = next_first, next_second
                if telemetry.enabled():
                    registry = telemetry.registry()
                    registry.counter_inc(f"engine.{self.name}.joint_solves")
                    registry.counter_inc(
                        f"engine.{self.name}.joint_iterations", float(iteration)
                    )
                    registry.observe(f"engine.{self.name}.joint_residual", residual)
                break
            rho_first = 0.5 * (rho_first + next_first)
            rho_second = 0.5 * (rho_second + next_second)
        else:
            raise AnalyticModelError(
                f"{self.name} joint equilibrium for {first_label!r} + "
                f"{second_label!r} did not converge"
            )
        self._check_validity(
            state, rho_first + rho_second, f"{first_label} + {second_label}"
        )
        return rho_first, rho_second

    def _check_validity(
        self, state: Any, rho: float, label: str, where: str = ""
    ) -> None:
        """Refuse a converged utilization at or beyond the validity ceiling.

        A near-saturated switch is where the Poisson/steady-state algebra
        has nothing trustworthy to say.
        """
        if rho >= self.max_utilization:
            raise AnalyticModelError(
                f"{self.name} model out of validity range for {label!r}: "
                f"utilization {rho:.3f}{where} >= {self.max_utilization} "
                "(Poisson/steady-state assumptions break down; "
                "use --engine sim for this experiment)"
            )

    def _mean_packet(self, loads: Sequence[Any]) -> float:
        """Packet-weighted mean packet size over the active traffic mix."""
        summaries = [self._summary(load) for load in loads]
        packets = sum(s.packets for s in summaries)
        if packets <= 0:
            return 0.0
        return sum(s.bytes for s in summaries) / packets

    def _probe_load(self, state: Any, settings: "PipelineSettings") -> Any:
        probe = ImpactB(LatencyCollector(), interval=settings.probe_interval)
        return self._load(state, probe)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def _probe_count(
        self, settings: "PipelineSettings", config: MachineConfig, duration: float
    ) -> int:
        pairs = (config.node_count // 2) * config.node.sockets
        # Matches the sim path: 10% of the window is discarded as warm-up.
        expected = 0.9 * duration / settings.probe_interval * max(1, pairs)
        return max(2, min(_MAX_SYNTH_SAMPLES, int(expected)))

    def _signature(
        self,
        state: Any,
        settings: "PipelineSettings",
        calibration: Optional[dict],
        rho: float,
        duration: float,
    ) -> dict:
        if calibration is None:
            raise AnalyticModelError(
                f"{self.name} signatures need a calibration estimate in the descriptor"
            )
        estimate = ServiceEstimate.from_dict(calibration)
        mean = sojourn_from_utilization(rho, estimate.rate, estimate.variance)
        # Spread grows with congestion: the idle dispersion stretched by the
        # same 1/(1-rho) factor that stretches the queueing delay.
        std = math.sqrt(max(estimate.variance, 1e-18)) / (1.0 - rho)
        count = self._probe_count(settings, state.config, duration)
        histogram = _lognormal_histogram(mean, std, count)
        return {
            "mean": mean,
            "std": std,
            "count": count,
            "utilization": rho,
            "histogram": histogram.to_dict(),
        }

    def _probe_impact(
        self,
        state: Any,
        settings: "PipelineSettings",
        calibration: Optional[dict],
        duration: float,
        workload: Optional[Workload],
        label: str,
    ) -> dict:
        """The probe's impact product, alone or beside ``workload``."""
        probe = self._probe_load(state, settings)
        if workload is None:
            _period, rho = self._solve(
                state, probe, self._mean_packet([probe]), "impactb"
            )
        else:
            other = self._load(state, workload)
            rho_probe, rho_other = self._solve_joint(
                state, probe, other, self._mean_packet([probe, other]), "impactb", label
            )
            rho = rho_probe + rho_other
        signature = self._signature(
            state, settings, calibration, self._probe_utilization(state, rho), duration
        )
        return {
            "signature": signature,
            # Sim parity: the simulator reports switch 0 (the single switch,
            # or leaf0 on fabrics).
            "true_utilization": self._switch_utilization(rho),
            "sim_time": duration,
        }

    def _impact(
        self,
        state: Any,
        settings: "PipelineSettings",
        descriptor: "ExperimentDescriptor",
    ) -> dict:
        workload = descriptor.workload
        return self._probe_impact(
            state,
            settings,
            descriptor.calibration,
            settings.impact_duration,
            workload,
            "" if workload is None else workload.name,
        )

    def _comp_sig(
        self,
        state: Any,
        settings: "PipelineSettings",
        descriptor: "ExperimentDescriptor",
    ) -> dict:
        comp_config = descriptor.comp_config
        impact = self._probe_impact(
            state,
            settings,
            descriptor.calibration,
            settings.signature_duration,
            CompressionB(comp_config),
            comp_config.label,
        )
        return {
            "partners": comp_config.partners,
            "messages": comp_config.messages,
            "sleep_cycles": comp_config.sleep_cycles,
            "message_bytes": comp_config.message_bytes,
            "impact": impact,
        }

    def _baseline(self, state: Any, workload: Optional[Workload]) -> float:
        if workload is None:
            raise ExperimentError("baseline descriptors need a workload")
        load = self._load(state, workload)
        period, _rho = self._solve(
            state, load, self._mean_packet([load]), workload.name
        )
        return self._summary(load).rounds * period

    def _slowdown(
        self,
        state: Any,
        measured: Optional[Workload],
        other: Optional[Workload],
        baseline: Optional[float],
    ) -> float:
        if measured is None or other is None:
            raise ExperimentError("slowdown descriptors need both workloads")
        if baseline is None or baseline <= 0:
            raise ExperimentError(
                f"slowdown for {measured.name!r} needs a positive baseline"
            )
        measured_load = self._load(state, measured)
        other_load = self._load(state, other)
        mean_packet = self._mean_packet([measured_load, other_load])
        rho_measured, rho_other = self._solve_joint(
            state, measured_load, other_load, mean_packet,
            measured.name, other.name,
        )
        period = self._interfered_round_time(
            state, measured_load, rho_measured, rho_other, mean_packet
        )
        interfered = self._summary(measured_load).rounds * period
        return 100.0 * (interfered - baseline) / baseline


class AnalyticEngine(ClosedFormEngine):
    """Answers experiment descriptors from M/G/1 closed forms on one switch.

    Each product costs one small fixed-point solve instead of millions of
    simulated events: the harness's ``analytic-paper`` workload (a cold
    330-product paper campaign) runs at 1 250 products per second at
    reference speed, median of seeds 0–9 (``python3
    benchmarks/harness/bench.py run --workload analytic-paper``).  Use it
    for sweeps, sanity checks, and CI smoke; use the ``sim`` engine when
    packet-level fidelity matters.
    """

    name = "analytic"
    _state = SwitchModel
    #: A joint step's size: the utilization is one scalar.
    _norm = abs

    def capabilities(self) -> EngineCapabilities:
        """Single-switch M/G/1 only: no fabrics, no faults.

        A degenerate leaf-spine (one leaf, no faults) *is* the single
        switch — all traffic stays on the leaf — so ``max_leaves=1`` admits
        it and the math collapses to the single-switch formulas.  Multi-leaf
        fabrics are out (the aggregate :class:`TrafficSummary` cannot be
        split across inter-switch links — that is the fluid engine's job)
        and so is every fault kind.
        """
        return EngineCapabilities(
            topologies=("single", "leaf-spine"),
            max_leaves=1,
            fault_kinds=(),
            summary="closed-form M/G/1 fixed point; single switch only",
        )

    @staticmethod
    def _load(model: SwitchModel, workload: Workload) -> TrafficSummary:
        return workload.traffic(model.config)

    @staticmethod
    def _summary(load: TrafficSummary) -> TrafficSummary:
        return load

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def _round_time(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        rho_external: float,
        mean_packet: float,
    ) -> Tuple[Callable[[float], float], float, float]:
        """``(T, base, queue)``: the round time under a fixed external load.

        Only the P–K waiting time depends on ``ρ_total``, so every other
        term, and the service moments, are computed here once per solve.
        The function ``T(ρ_total)`` repeats :meth:`SwitchModel.waiting_time`'s
        float operations in their order (``mean`` is ``1/(1/mean_service)``,
        which can differ from ``mean_service`` in the last bit).  Where that
        method's :func:`pk_waiting_time` call would raise — an unstable
        queue or invalid service moments — the function makes the same call.

        Below the 0.999 clamp, ``T = base + queue·ρ_total/(1 − ρ_total)``:
        ``base`` is the part that does not depend on ``ρ_total`` and
        ``queue`` is the blocking latencies times ``E[S²]/(2·E[S])``.
        :meth:`_rho_hint` solves the bisection's equation from these two.
        """
        share = max(1.0 - rho_external, self.min_bandwidth_share)
        serialization = summary.blocking_bytes / (model.port_bandwidth * share)
        head = summary.compute + summary.period + serialization
        latencies = summary.blocking_latencies
        idle = model.idle_one_way(mean_packet)
        mean_service = model.packet_service(mean_packet)
        variance = model.service_variance
        service_rate = 1.0 / mean_service
        mean = 1.0 / service_rate
        second_moment = variance + mean * mean
        valid = service_rate > 0 and variance >= 0

        def round_time(rho_total: float) -> float:
            # min(max(ρ, 0.0), 0.999) without the calls; NaN and −0.0 pass
            rho = 0.0 if rho_total < 0.0 else 0.999 if rho_total > 0.999 else rho_total
            wait = 0.0
            if rho != 0.0:
                arrival = rho / mean_service
                if arrival < service_rate and valid:
                    wait = arrival * second_moment / (
                        2.0 * (1.0 - arrival / service_rate)
                    )
                else:
                    wait = pk_waiting_time(arrival, service_rate, variance)
            return head + latencies * (idle + wait)

        base = head + latencies * idle
        queue = latencies * second_moment * service_rate * 0.5
        return round_time, base, queue

    @staticmethod
    def _rho_hint(
        base: float, queue: float, busy_per_port: float, rho_external: float
    ) -> float:
        """Where :meth:`_solve_rho`'s root lies if the 0.999 clamp is idle.

        With ``T = base + queue·ρ_t/(1 − ρ_t)`` and ``ρ_t = ρ_ext + ρ``,
        ``ρ·T = busy_per_port`` is the quadratic
        ``(queue − base)·ρ² + b·ρ − c = 0``; this is its root in the form
        without cancellation.  Only a guess: the solver verifies it and
        falls back to the full bisection, so NaN (no real root, or NaN
        inputs) is a valid answer.
        """
        free = 1.0 - rho_external
        c = busy_per_port * free
        b = base * free + queue * rho_external + busy_per_port
        discriminant = b * b + 4.0 * (queue - base) * c
        if not discriminant >= 0.0:
            return math.nan
        denominator = b + math.sqrt(discriminant)
        if denominator == 0.0:
            return math.nan
        return 2.0 * c / denominator

    def _solve_rho(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        rho_external: float,
        mean_packet: float,
        label: str,
    ) -> float:
        """Own steady-state utilization under a fixed external load.

        Finds the root of ``h(ρ) = ρ − busy/(T(ρ_ext + ρ) · ports)``.  Since
        a longer round means a lower offered rate, ``h`` is strictly
        increasing, so bisection on [0, 1] converges unconditionally — the
        naive damped iteration oscillates here because Wq's blow-up makes
        the map's slope steeper than −1 near the fixed point.  A step that
        leaves ``(low, high)`` unchanged would repeat forever, so it ends
        the bisection early with the same answer.

        Every float operation in a step is monotone in each argument, so
        the step's predicate ``h < 0`` holds on a down-set of the dyadic
        grid, and the bracket after step ``k`` is the one level-``k`` cell
        whose lower end satisfies it and whose upper end does not.  The
        solve therefore starts from :meth:`_rho_hint`'s level-46 cell when
        the predicate confirms that cell at both ends: the bisection then
        resumes at step 47 with the bracket, the answer and the step count
        a start from [0, 1] reaches.  Otherwise it starts from [0, 1].
        """
        busy = model.busy(summary.bytes, summary.packets)
        if busy <= 0.0:
            return 0.0
        round_time, base, queue = self._round_time(
            model, summary, rho_external, mean_packet
        )
        ports = model.ports

        def below(rho: float) -> bool:
            # h(ρ) < 0; a zero-length round offering traffic counts as
            # saturated (h = −1).
            period = round_time(rho_external + rho)
            return period <= 0.0 or rho - busy / (period * ports) < 0.0

        if below(1.0):
            raise AnalyticModelError(
                f"analytic model saturated for {label!r}: offered load "
                f"exceeds switch capacity even at utilization 1 "
                "(use --engine sim for this experiment)"
            )
        low, high, start = 0.0, 1.0, 0
        hint = self._rho_hint(base, queue, busy / ports, rho_external)
        if 0.0 < hint < 1.0:
            cell = math.floor(hint * _WARM_SCALE)
            lower, upper = cell / _WARM_SCALE, (cell + 1) / _WARM_SCALE
            if (lower == 0.0 or below(lower)) and (upper == 1.0 or not below(upper)):
                low, high, start = lower, upper, _WARM_LEVEL
        steps = start
        for steps in range(start + 1, self._bisection_steps + 1):
            mid = 0.5 * (low + high)
            if below(mid):
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

    def _best_response(self) -> Callable[..., float]:
        return self._solve_rho

    @staticmethod
    def _zero(model: SwitchModel) -> float:
        return 0.0

    def _solve(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        mean_packet: float,
        label: str,
    ) -> tuple:
        """``(round_time, rho)`` equilibrium of one lone workload."""
        rho = self._solve_rho(model, summary, 0.0, mean_packet, label)
        self._check_validity(model, rho, label)
        return self._round_time(model, summary, 0.0, mean_packet)[0](rho), rho

    def _interfered_round_time(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        rho_measured: float,
        rho_other: float,
        mean_packet: float,
    ) -> float:
        round_time = self._round_time(model, summary, rho_other, mean_packet)[0]
        return round_time(rho_measured + rho_other)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def _calibration(self, model: SwitchModel, settings: "PipelineSettings") -> dict:
        probe_bytes = 1024  # ImpactB's single-packet probe message
        mean = model.idle_one_way(probe_bytes)
        count = self._probe_count(
            settings, model.config, settings.calibration_duration
        )
        return ServiceEstimate(
            mean=mean,
            variance=model.service_variance,
            minimum=model.deterministic_one_way(probe_bytes),
            sample_count=count,
        ).to_dict()

    @staticmethod
    def _probe_utilization(model: SwitchModel, rho: float) -> float:
        return rho

    @staticmethod
    def _switch_utilization(rho: float) -> float:
        return rho


def _lognormal_histogram(mean: float, std: float, count: int) -> LatencyHistogram:
    """A deterministic latency histogram with the requested two moments.

    Synthesizes ``count`` lognormal quantile samples (midpoint probabilities,
    standard-normal inverse CDF from :class:`statistics.NormalDist`) and bins
    them on the paper's shared edges.  No RNG: identical inputs give
    identical histograms on every platform.
    """
    if mean <= 0 or not math.isfinite(mean):
        raise AnalyticModelError(f"histogram mean must be positive, got {mean}")
    sigma_sq = math.log(1.0 + (std * std) / (mean * mean)) if std > 0 else 0.0
    sigma = math.sqrt(sigma_sq)
    mu = math.log(mean) - 0.5 * sigma_sq
    samples = np.exp(mu + sigma * _normal_quantiles(count))
    return LatencyHistogram.from_values(samples)


@functools.lru_cache(maxsize=32)
def _normal_quantiles(count: int) -> np.ndarray:
    """Standard-normal quantiles at ``count`` midpoint probabilities.

    Every signature of one campaign shares a probe count, so the
    ``inv_cdf`` loop runs once per count.  The array is read-only because
    every caller shares it.
    """
    probabilities = (np.arange(count, dtype=float) + 0.5) / count
    quantiles = np.asarray(
        [_STANDARD_NORMAL.inv_cdf(float(p)) for p in probabilities]
    )
    quantiles.flags.writeable = False
    return quantiles


register_engine("analytic", AnalyticEngine)
