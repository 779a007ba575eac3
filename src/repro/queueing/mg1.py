"""M/G/1 queue closed forms (Pollaczek–Khinchine).

The paper (§IV-B) models the switch routing fabric as an M/G/1 queue: Poisson
packet arrivals at rate λ, a single server with general service times *S*
(rate µ = 1/E[S], variance Var(S)).  The Pollaczek–Khinchine formula gives the
mean time in system

    W = (ρ + λ·µ·Var(S)) / (2(µ − λ)) + 1/µ,     ρ = λ/µ,

which equals the textbook form  W = λ·E[S²]/(2(1−ρ)) + E[S].
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import EstimationError

__all__ = ["MG1", "pk_waiting_time", "pk_waiting_times", "pk_sojourn_time"]


def _validate(arrival_rate: float, service_rate: float, service_variance: float) -> None:
    if service_rate <= 0:
        raise EstimationError(f"service rate must be positive, got {service_rate}")
    if arrival_rate < 0:
        raise EstimationError(f"arrival rate must be non-negative, got {arrival_rate}")
    if service_variance < 0:
        raise EstimationError(f"service variance must be non-negative, got {service_variance}")
    if arrival_rate >= service_rate:
        raise EstimationError(
            f"unstable queue: arrival rate {arrival_rate} >= service rate {service_rate}"
        )


def pk_waiting_time(arrival_rate: float, service_rate: float, service_variance: float) -> float:
    """Mean time spent *waiting* (excluding service), Wq = λE[S²]/(2(1−ρ)).

    Raises:
        EstimationError: for invalid parameters or an unstable queue (ρ ≥ 1).
    """
    _validate(arrival_rate, service_rate, service_variance)
    mean_service = 1.0 / service_rate
    second_moment = service_variance + mean_service * mean_service
    rho = arrival_rate / service_rate
    return arrival_rate * second_moment / (2.0 * (1.0 - rho))


def pk_sojourn_time(arrival_rate: float, service_rate: float, service_variance: float) -> float:
    """Mean total time in system, W = Wq + E[S] (the paper's *W*)."""
    return pk_waiting_time(arrival_rate, service_rate, service_variance) + 1.0 / service_rate


def pk_waiting_times(utilizations, mean_service: float, service_variance: float, out=None):
    """Vectorized Wq over a utilization array (one M/G/1 per resource).

    The fluid engine evaluates P–K waiting at every switch and directed
    link on each solver step; the scalar entry point costs a Python call
    per resource, which dominates 512-node solves.  This performs the exact
    operation sequence of ``pk_waiting_time`` under the fluid/analytic
    engines' clamping convention (utilization pinned to [0, 0.999] so
    transiently-unstable fixed-point iterates pass through), elementwise in
    float64 — a one-element array reproduces the scalar path bit for bit.

    The result is written into ``out`` (a float64 array of the
    utilizations' shape) when given, so a solver can reuse one buffer
    across steps; otherwise into a fresh array.
    """
    import numpy as np

    if mean_service <= 0:
        raise EstimationError(f"mean service must be positive, got {mean_service}")
    if service_variance < 0:
        raise EstimationError(
            f"service variance must be non-negative, got {service_variance}"
        )
    service_rate = 1.0 / mean_service
    mean = 1.0 / service_rate
    second_moment = service_variance + mean * mean
    utilizations = np.asarray(utilizations, dtype=float)
    if out is None:
        out = np.empty_like(utilizations)
    denominator = np.empty_like(out)
    # λ·E[S²] / (2·(1 − λ/µ)), elementwise and in place.
    utilizations.clip(0.0, 0.999, out=out)  # np.clip, minus its dispatch
    np.divide(out, mean_service, out=out)
    np.divide(out, service_rate, out=denominator)
    np.subtract(1.0, denominator, out=denominator)
    np.multiply(2.0, denominator, out=denominator)
    np.multiply(out, second_moment, out=out)
    np.divide(out, denominator, out=out)
    return out


@dataclass(frozen=True)
class MG1:
    """An M/G/1 queue with fixed parameters.

    Attributes:
        arrival_rate: Poisson arrival rate λ (items/second).
        service_rate: service rate µ = 1/E[S] (items/second).
        service_variance: Var(S) in seconds².
    """

    arrival_rate: float
    service_rate: float
    service_variance: float

    def __post_init__(self) -> None:
        _validate(self.arrival_rate, self.service_rate, self.service_variance)

    @property
    def utilization(self) -> float:
        """ρ = λ/µ, the fraction of time the server is busy."""
        return self.arrival_rate / self.service_rate

    @property
    def mean_service_time(self) -> float:
        """E[S] = 1/µ."""
        return 1.0 / self.service_rate

    @property
    def service_scv(self) -> float:
        """Squared coefficient of variation of service times, Var(S)·µ²."""
        return self.service_variance * self.service_rate**2

    @property
    def waiting_time(self) -> float:
        """Wq, the mean queueing delay before service starts."""
        return pk_waiting_time(self.arrival_rate, self.service_rate, self.service_variance)

    @property
    def sojourn_time(self) -> float:
        """W = Wq + E[S], mean total time in the system (paper's latency)."""
        return self.waiting_time + self.mean_service_time

    @property
    def mean_queue_length(self) -> float:
        """Lq = λ·Wq (Little's law applied to the waiting room)."""
        return self.arrival_rate * self.waiting_time

    @property
    def mean_in_system(self) -> float:
        """L = λ·W (Little's law)."""
        return self.arrival_rate * self.sojourn_time

    def paper_sojourn_form(self) -> float:
        """The P–K formula exactly as printed in the paper (Eq. 1/2).

        W = (ρ + λµVar(S)) / (2(µ − λ)) + µ⁻¹.  Kept as an explicit cross-check
        that our standard form and the paper's algebra agree.
        """
        lam, mu, var = self.arrival_rate, self.service_rate, self.service_variance
        rho = lam / mu
        return (rho + lam * mu * var) / (2.0 * (mu - lam)) + 1.0 / mu
