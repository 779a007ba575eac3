"""Service-time distributions for the switch routing fabric.

The paper's queue model only needs the mean and variance of the fabric's
service time, but the *shape* matters for the look-up-table models (they
compare whole latency histograms).  The default model is a lognormal body
with a rare slow-packet mixture, reproducing Fig. 3's idle distribution:
"many packets taking a little less or more time and a few packets taking
significantly longer".
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..units import US

__all__ = [
    "ServiceTimeModel",
    "DeterministicService",
    "ExponentialService",
    "LognormalService",
    "MixtureService",
    "default_fabric_service",
    "default_port_overhead",
]


class ServiceTimeModel(ABC):
    """A distribution of per-packet fabric service times."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one service time in seconds."""

    @abstractmethod
    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` service times (vectorized)."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Analytic E[S] in seconds."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Analytic Var(S) in seconds²."""

    @property
    def rate(self) -> float:
        """Service rate µ = 1/E[S]."""
        return 1.0 / self.mean

    @property
    def scv(self) -> float:
        """Squared coefficient of variation Var(S)/E[S]²."""
        return self.variance / (self.mean * self.mean)


def _check_mean(mean: float) -> None:
    if mean <= 0 or not math.isfinite(mean):
        raise ConfigurationError(f"service mean must be positive and finite, got {mean}")


class DeterministicService(ServiceTimeModel):
    """Constant service time (M/D/1 fabric)."""

    def __init__(self, mean: float) -> None:
        _check_mean(mean)
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator) -> float:
        return self._mean

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self._mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return f"DeterministicService(mean={self._mean:g})"


class ExponentialService(ServiceTimeModel):
    """Exponential service time (M/M/1 fabric) — useful as an analytic anchor."""

    def __init__(self, mean: float) -> None:
        _check_mean(mean)
        self._mean = float(mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.exponential(self._mean, size=count)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._mean * self._mean

    def __repr__(self) -> str:
        return f"ExponentialService(mean={self._mean:g})"


class LognormalService(ServiceTimeModel):
    """Lognormal service time parameterized by target mean and shape sigma."""

    def __init__(self, mean: float, sigma: float) -> None:
        _check_mean(mean)
        if not 0 <= sigma < math.inf:  # negative, infinite or NaN
            raise ConfigurationError(f"sigma must be non-negative and finite, got {sigma}")
        self._mean = float(mean)
        self._sigma = float(sigma)
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
        self._mu = math.log(mean) - sigma * sigma / 2.0

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self._sigma))

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.lognormal(self._mu, self._sigma, size=count)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        s2 = self._sigma * self._sigma
        return (math.exp(s2) - 1.0) * self._mean * self._mean

    @property
    def sigma(self) -> float:
        """Shape parameter of the underlying normal."""
        return self._sigma

    def __repr__(self) -> str:
        return f"LognormalService(mean={self._mean:g}, sigma={self._sigma:g})"


class MixtureService(ServiceTimeModel):
    """Finite mixture of service-time models with analytic moments."""

    def __init__(self, components: Sequence[ServiceTimeModel], weights: Sequence[float]) -> None:
        if len(components) != len(weights) or not components:
            raise ConfigurationError("components and weights must be non-empty and equal length")
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ConfigurationError(f"weights must be non-negative with positive sum, got {weights}")
        self._components: List[ServiceTimeModel] = list(components)
        self._weights = np.asarray([w / total for w in weights], dtype=float)

    @property
    def components(self) -> List[ServiceTimeModel]:
        """The mixture's component models."""
        return list(self._components)

    @property
    def weights(self) -> List[float]:
        """Normalized component weights."""
        return [float(w) for w in self._weights]

    def sample(self, rng: np.random.Generator) -> float:
        index = int(rng.choice(len(self._components), p=self._weights))
        return self._components[index].sample(rng)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        choices = rng.choice(len(self._components), size=count, p=self._weights)
        out = np.empty(count)
        for index, component in enumerate(self._components):
            mask = choices == index
            hits = int(mask.sum())
            if hits:
                out[mask] = component.sample_many(rng, hits)
        return out

    @property
    def mean(self) -> float:
        return float(sum(w * c.mean for w, c in zip(self._weights, self._components)))

    @property
    def variance(self) -> float:
        # Var = E[Var|k] + Var[E|k] (law of total variance).
        mean = self.mean
        within = sum(w * c.variance for w, c in zip(self._weights, self._components))
        between = sum(w * (c.mean - mean) ** 2 for w, c in zip(self._weights, self._components))
        return float(within + between)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{w:.3f}*{c!r}" for w, c in zip(self._weights, self._components)
        )
        return f"MixtureService({parts})"


def default_fabric_service(
    mean_body: float = 0.78 * US,
    sigma_body: float = 0.30,
    slow_fraction: float = 0.02,
    slow_mean: float = 4.0 * US,
    slow_sigma: float = 0.25,
) -> MixtureService:
    """The Cab-like default: lognormal body + rare slow packets.

    Matches Fig. 3's idle-switch distribution qualitatively: mode near 0.8 µs,
    mild right skew, and ~2% of packets several times slower.
    """
    return MixtureService(
        components=[
            LognormalService(mean_body, sigma_body),
            LognormalService(slow_mean, slow_sigma),
        ],
        weights=[1.0 - slow_fraction, slow_fraction],
    )


def default_port_overhead(
    mean_body: float = 0.10 * US,
    sigma_body: float = 0.35,
    slow_fraction: float = 0.015,
    slow_mean: float = 2.2 * US,
    slow_sigma: float = 0.30,
) -> MixtureService:
    """Per-packet routing overhead for the output-queued crossbar.

    Small relative to serialization (so ports keep up with NIC-rate
    injection and utilization tops out below 100%), with a rare slow-packet
    tail that reproduces the "few packets taking significantly longer" in
    the paper's idle distribution (Fig. 3).
    """
    return MixtureService(
        components=[
            LognormalService(mean_body, sigma_body),
            LognormalService(slow_mean, slow_sigma),
        ],
        weights=[1.0 - slow_fraction, slow_fraction],
    )
