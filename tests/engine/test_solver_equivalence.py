"""The prepared closed-form solvers equal the unprepared ones, bit for bit.

Both closed-form engines compute every per-solve constant once and end
the bisection at the first step that leaves ``(low, high)`` unchanged.
The oracles below are verbatim copies of the solvers from before that
change — every term recomputed on every step, all 60 steps always run —
so any drift in float-operation order, clamping, exception behaviour, or
the early exit shows up here as an unequal bit pattern.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import cab_config, large_fabric_config
from repro.config import MachineConfig
from repro.engine.analytic import AnalyticEngine, SwitchModel
from repro.engine.fluid import FluidEngine, _FluidLoad, _FluidState
from repro.errors import AnalyticModelError, EstimationError
from repro.scenario import ResourceDemand, ring_node_weights, uniform_node_weights
from repro.workloads.traffic import TrafficSummary

# Degenerate draws (a zero-length round) divide 0/0 in both solvers alike.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ----------------------------------------------------------------------
# Oracles: the solvers as they were, copied verbatim
# ----------------------------------------------------------------------
# repro.queueing.pk_waiting_times before its ``out`` buffer, renamed.
def _pk_waiting_times_oracle(utilizations, mean_service: float, service_variance: float):
    """Vectorized Wq over a utilization array (one M/G/1 per resource).

    The fluid engine evaluates P–K waiting at every switch and directed
    link on each solver step; the scalar entry point costs a Python call
    per resource, which dominates 512-node solves.  This performs the exact
    operation sequence of ``pk_waiting_time`` under the fluid/analytic
    engines' clamping convention (utilization pinned to [0, 0.999] so
    transiently-unstable fixed-point iterates pass through), elementwise in
    float64 — a one-element array reproduces the scalar path bit for bit.
    """
    import numpy as np

    if mean_service <= 0:
        raise EstimationError(f"mean service must be positive, got {mean_service}")
    if service_variance < 0:
        raise EstimationError(
            f"service variance must be non-negative, got {service_variance}"
        )
    rho = np.clip(np.asarray(utilizations, dtype=float), 0.0, 0.999)
    arrival_rate = rho / mean_service
    service_rate = 1.0 / mean_service
    mean = 1.0 / service_rate
    second_moment = service_variance + mean * mean
    return arrival_rate * second_moment / (2.0 * (1.0 - arrival_rate / service_rate))


class _AnalyticOracle:
    """``AnalyticEngine._round_time`` and ``_solve_rho`` before preparation."""

    min_bandwidth_share = AnalyticEngine.min_bandwidth_share
    _bisection_steps = AnalyticEngine._bisection_steps
    _solve_count = 0
    _iteration_count = 0

    def _round_time(
        self,
        model: SwitchModel,
        summary: TrafficSummary,
        rho_total: float,
        rho_external: float,
        mean_packet: float,
    ) -> float:
        share = max(1.0 - rho_external, self.min_bandwidth_share)
        serialization = summary.blocking_bytes / (model.port_bandwidth * share)
        hop = model.idle_one_way(mean_packet) + model.waiting_time(rho_total, mean_packet)
        return (
            summary.compute
            + summary.period
            + serialization
            + summary.blocking_latencies * hop
        )

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
        the map's slope steeper than −1 near the fixed point.
        """
        busy = model.busy_per_round(summary)
        if busy <= 0.0:
            return 0.0

        def excess(rho: float) -> float:
            period = self._round_time(
                model, summary, rho_external + rho, rho_external, mean_packet
            )
            if period <= 0.0:
                return -1.0  # zero-length round offering traffic: saturated
            return rho - busy / (period * model.ports)

        low, high = 0.0, 1.0
        if excess(high) < 0.0:
            raise AnalyticModelError(
                f"analytic model saturated for {label!r}: offered load "
                f"exceeds switch capacity even at utilization 1 "
                "(use --engine sim for this experiment)"
            )
        for _ in range(self._bisection_steps):
            mid = 0.5 * (low + high)
            if excess(mid) < 0.0:
                low = mid
            else:
                high = mid
        self._solve_count += 1
        self._iteration_count += self._bisection_steps
        return 0.5 * (low + high)


class _FluidOracle:
    """``FluidEngine._round_time`` and ``_solve_round`` before preparation."""

    min_bandwidth_share = FluidEngine.min_bandwidth_share
    _bisection_steps = FluidEngine._bisection_steps
    _solve_count = 0
    _iteration_count = 0

    def _round_time(
        self,
        state: "_FluidState",
        load: _FluidLoad,
        rho_total: np.ndarray,
        rho_own: np.ndarray,
        mean_packet: float,
    ) -> float:
        """One workload's round time under the fabric's utilization state.

        The single-switch specialization of every term is the analytic
        engine's ``_round_time``: with one resource the bottleneck share is
        ``1 - rho_external``, ``extra_hops`` is zero, and the queue-share
        vector is the single delivery port.
        """
        model = state.model
        summary = load.summary
        touched = load.busy > 0.0
        if touched.any():
            bottleneck = int(np.argmax(np.where(touched, rho_total, -1.0)))
            rho_external = rho_total[bottleneck] - rho_own[bottleneck]
        else:
            rho_external = 0.0
        share = max(1.0 - rho_external, self.min_bandwidth_share)
        serialization = summary.blocking_bytes / (model.port_bandwidth * share)
        waiting = float(
            load.queue_share
            @ _pk_waiting_times_oracle(
                rho_total, model.packet_service(mean_packet), model.service_variance
            )
        )
        hop = (
            model.idle_one_way(mean_packet)
            + load.extra_hops
            * (model.packet_service(mean_packet) + state.link_latency)
            + waiting
        )
        return (
            summary.compute
            + summary.period
            + serialization
            + summary.blocking_latencies * hop
        )

    def _solve_round(
        self,
        state: "_FluidState",
        load: _FluidLoad,
        rho_external: np.ndarray,
        mean_packet: float,
        label: str,
    ) -> float:
        """Steady-state round time under a fixed external utilization field.

        The map ``f(T) = round_time at ρ = ρ_ext + busy/(T·ports)`` is
        decreasing in ``T`` (a longer round offers less load everywhere), so
        ``T - f(T)`` is strictly increasing and bisection converges
        unconditionally — the same monotonicity argument as the analytic
        engine's bisection on ρ, transposed to the round time because the
        workload's whole utilization *vector* scales with ``1/T``.
        """
        idle = self._round_time(
            state, load, rho_external, np.zeros_like(rho_external), mean_packet
        )
        if not load.busy.any():
            return idle

        def offered(round_time: float) -> float:
            rho_own = load.rho(round_time, state.ports)
            return self._round_time(
                state, load, rho_external + rho_own, rho_own, mean_packet
            )

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
        for _ in range(self._bisection_steps):
            mid = 0.5 * (low + high)
            if mid - offered(mid) < 0.0:
                low = mid
            else:
                high = mid
        self._solve_count += 1
        self._iteration_count += self._bisection_steps
        return 0.5 * (low + high)


class _AnalyticJointOracle(_AnalyticOracle, AnalyticEngine):
    """The engine's Gauss–Seidel joint solve over the oracle's ``_solve_rho``."""


class _FluidJointOracle(_FluidOracle, FluidEngine):
    """The engine's Gauss–Seidel joint solve over the oracle's ``_solve_round``."""


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _central(config: MachineConfig) -> MachineConfig:
    network = replace(config.network, switch_mode="central", fabric_servers=2)
    return replace(config, network=network)


CONFIGS = {
    "cab": cab_config(),
    "cab-central": _central(cab_config()),
    "fabric": large_fabric_config(),
    "fabric-central": _central(large_fabric_config()),
}

_FINITE = {"allow_nan": False, "allow_infinity": False}

summaries = st.builds(
    TrafficSummary,
    ranks=st.just(1),
    rounds=st.just(1),
    compute=st.floats(0.0, 1e-2, **_FINITE),
    packets=st.floats(0.0, 1e5, **_FINITE),
    bytes=st.floats(0.0, 1e8, **_FINITE),
    blocking_bytes=st.floats(0.0, 1e6, **_FINITE),
    blocking_latencies=st.floats(0.0, 200.0, **_FINITE),
    period=st.floats(0.0, 1e-2, **_FINITE),
)
external_loads = st.floats(0.0, 0.95)
# 0 is the engines' mean packet of an empty traffic mix.
packet_sizes = st.floats(0.0, 65536.0)
# Everything the clamp must handle, not only what a bisection visits.
utilizations = st.floats() | st.sampled_from([-0.0, 0.0, 0.999, 1.0, -1.0])


def _bits(value) -> str:
    """Exact identity of a float (sign of zero and NaN included)."""
    return float(value).hex()


def _outcome(solve, *args):
    """A solver's result bits, or the exception it raised."""
    try:
        return _bits(solve(*args))
    except (AnalyticModelError, EstimationError) as error:
        return type(error), str(error)


# ----------------------------------------------------------------------
# Analytic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@settings(max_examples=120, deadline=None)
@given(
    summary=summaries,
    rho_external=external_loads,
    mean_packet=packet_sizes,
    utilization=utilizations,
)
def test_analytic_solver_matches_oracle(
    config_name, summary, rho_external, mean_packet, utilization
):
    model = SwitchModel(CONFIGS[config_name])
    engine, oracle = AnalyticEngine(), _AnalyticOracle()
    args = (model, summary, rho_external, mean_packet, "w")
    solved = _outcome(engine._solve_rho, *args)
    assert solved == _outcome(oracle._solve_rho, *args)
    assert engine._iteration_count <= oracle._iteration_count
    round_time = engine._round_time(model, summary, rho_external, mean_packet)
    points = [utilization]
    if isinstance(solved, str):  # converged: the final round time in _solve
        points.append(rho_external + float.fromhex(solved))
    for rho_total in points:
        assert _outcome(round_time, rho_total) == _outcome(
            oracle._round_time, model, summary, rho_total, rho_external, mean_packet
        )


@settings(max_examples=40, deadline=None)
@given(first=summaries, second=summaries, mean_packet=packet_sizes)
def test_analytic_joint_solve_matches_oracle(first, second, mean_packet):
    model = SwitchModel(CONFIGS["cab"])

    def joint(engine):
        try:
            return engine._solve_joint(model, first, second, mean_packet, "a", "b")
        except AnalyticModelError as error:
            return str(error)

    assert joint(AnalyticEngine()) == joint(_AnalyticJointOracle())


def test_saturation_raises_the_oracles_message():
    model = SwitchModel(CONFIGS["cab"])
    flood = TrafficSummary(
        ranks=1, rounds=1, compute=0.0, packets=1e9, bytes=1e12,
        blocking_bytes=0.0, blocking_latencies=0.0,
    )
    messages = []
    for solver in (AnalyticEngine(), _AnalyticOracle()):
        with pytest.raises(AnalyticModelError, match="saturated") as raised:
            solver._solve_rho(model, flood, 0.0, 1024.0, "flood")
        messages.append(str(raised.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize(
    "config_name, attribute, value",
    [
        ("cab", "service_variance", -1e-15),  # invalid moments: EstimationError
        ("cab", "service_mean", -2e-7),  # negative service rate
        ("cab", "service_mean", math.nan),
    ],
)
@settings(max_examples=40, deadline=None)
@given(summary=summaries, rho_external=external_loads, mean_packet=packet_sizes)
def test_analytic_error_paths_match_oracle(
    config_name, attribute, value, summary, rho_external, mean_packet
):
    model = SwitchModel(CONFIGS[config_name])
    setattr(model, attribute, value)
    args = (model, summary, rho_external, mean_packet, "w")
    assert _outcome(AnalyticEngine()._solve_rho, *args) == _outcome(
        _AnalyticOracle()._solve_rho, *args
    )


# ----------------------------------------------------------------------
# Fluid
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _state(config_name: str) -> _FluidState:
    return _FluidState(CONFIGS[config_name])


def _load(state: _FluidState, summary: TrafficSummary, pattern: str) -> _FluidLoad:
    nodes = state.config.node_count
    if pattern == "uniform":
        weights = uniform_node_weights(nodes)
    else:
        weights = ring_node_weights(nodes, 3)
    demand: ResourceDemand = state.spec.fold(state.spec.demand_matrix(summary, weights))
    return _FluidLoad(
        state.model, summary, demand, state.link_index, state.resource_count
    )


def _external(state: _FluidState, seed: int, scale: float) -> np.ndarray:
    return scale * np.random.default_rng(seed).random(state.resource_count)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    summary=summaries,
    pattern=st.sampled_from(["uniform", "ring"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.0, 0.9),
    mean_packet=packet_sizes,
)
def test_fluid_solver_matches_oracle(
    config_name, summary, pattern, seed, scale, mean_packet
):
    state = _state(config_name)
    load = _load(state, summary, pattern)
    rho_external = _external(state, seed, scale)
    engine, oracle = FluidEngine(), _FluidOracle()
    args = (state, load, rho_external, mean_packet, "w")
    solved = _outcome(engine._solve_round, *args)
    assert solved == _outcome(oracle._solve_round, *args)
    assert engine._iteration_count <= oracle._iteration_count
    if not isinstance(solved, str):
        return  # both raised the same saturation error
    # The final round time of _slowdown, at the solved utilization state.
    rho_own = load.rho(float.fromhex(solved), state.ports)
    rho_total = rho_external + rho_own
    prepared = engine._round_time(state, load, mean_packet)
    assert _bits(prepared(rho_total, rho_own)) == _bits(
        oracle._round_time(state, load, rho_total, rho_own, mean_packet)
    )


@pytest.mark.parametrize("config_name", ["cab", "fabric"])
@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(first=summaries, second=summaries, mean_packet=packet_sizes)
def test_fluid_joint_solve_matches_oracle(config_name, first, second, mean_packet):
    state = _state(config_name)
    loads = (_load(state, first, "uniform"), _load(state, second, "ring"))

    def joint(engine):
        try:
            return engine._solve_joint(state, *loads, mean_packet, "a", "b")
        except AnalyticModelError as error:
            return str(error)

    expected = joint(_FluidJointOracle())
    actual = joint(FluidEngine())
    if isinstance(expected, str):
        assert actual == expected
    else:
        # A zero-length round makes 0/0 utilizations; both must agree on them.
        assert all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(actual, expected)
        )
