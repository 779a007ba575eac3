"""Future-system studies (the paper's motivation (i)).

"developers will need to (i) predict how their applications will perform on
future systems with poorer network-to-node performance ratios" (§I).  Two
complementary routes are provided:

* :func:`network_scaling_study` — the direct (simulator-only) route: rebuild
  the machine with the network slowed by a factor and re-run the
  application.  Ground truth, but needs a new run per design point.

* :func:`equivalent_utilization` — the paper's route, via the *performance
  relativity* principle ("less capable networks behave very similarly to
  networks that are partially utilized"): probe the weaker network idle,
  invert its latency against the *original* network's calibration, and the
  resulting pseudo-utilization indexes the existing Fig. 7 degradation
  curves.  One compression sweep then amortizes over every what-if question.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ...config import MachineConfig, NetworkConfig
from ...errors import ExperimentError
from ...workloads import Workload
from .compression import isolated_runtime

__all__ = [
    "ScalingPoint",
    "scaled_network",
    "network_scaling_study",
    "equivalent_utilization",
]


@dataclass(frozen=True)
class ScalingPoint:
    """One future-system design point."""

    factor: float
    elapsed: float
    slowdown_percent: float


def scaled_network(config: NetworkConfig, factor: float) -> NetworkConfig:
    """A network ``factor``× *slower* than ``config`` (factor 2 = half the
    bandwidth, double the latencies and per-packet overheads).

    Compute-node speed is untouched, so the network-to-node performance
    ratio degrades by exactly ``factor`` — the future the paper's
    introduction warns about.
    """
    if factor <= 0:
        raise ExperimentError(f"scaling factor must be positive, got {factor}")
    return replace(
        config,
        link_bandwidth=config.link_bandwidth / factor,
        link_latency=config.link_latency * factor,
        egress_latency=config.egress_latency * factor,
        nic_overhead=config.nic_overhead * factor,
        port_overhead=_scale_model(config.port_overhead, factor),
        fabric_service=_scale_model(config.fabric_service, factor),
    )


def _scale_model(model, factor: float):
    """Scale a service-time model's time axis by ``factor``."""
    from ...network.service_time import (
        DeterministicService,
        ExponentialService,
        LognormalService,
        MixtureService,
    )

    if isinstance(model, DeterministicService):
        return DeterministicService(model.mean * factor)
    if isinstance(model, ExponentialService):
        return ExponentialService(model.mean * factor)
    if isinstance(model, LognormalService):
        return LognormalService(model.mean * factor, model.sigma)
    if isinstance(model, MixtureService):
        return MixtureService(
            [_scale_model(part, factor) for part in model.components],
            model.weights,
        )
    raise ExperimentError(f"cannot scale service model {type(model).__name__}")


def network_scaling_study(
    config: MachineConfig,
    workload: Workload,
    factors: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
) -> List[ScalingPoint]:
    """Run ``workload`` on progressively weaker networks.

    Returns:
        one :class:`ScalingPoint` per factor, in the given order; slowdowns
        are relative to the *first* factor's run (conventionally 1.0).
    """
    if not factors:
        raise ExperimentError("need at least one scaling factor")
    points: List[ScalingPoint] = []
    baseline: Optional[float] = None
    for factor in factors:
        machine_config = replace(config, network=scaled_network(config.network, factor))
        elapsed = isolated_runtime(machine_config, workload)
        if baseline is None:
            baseline = elapsed
        points.append(
            ScalingPoint(
                factor=factor,
                elapsed=elapsed,
                slowdown_percent=100.0 * (elapsed - baseline) / baseline,
            )
        )
    return points


def equivalent_utilization(
    config: MachineConfig,
    factor: float,
    calibration=None,
    probe_interval: float = 0.25e-3,
    duration: float = 0.03,
) -> float:
    """The utilization fraction a ``factor``×-weaker network *impersonates*.

    The performance-relativity principle, made executable: calibrate the
    original network, probe the weaker network while otherwise idle, and
    invert the weaker network's mean probe latency against the *original*
    calibration.  The result is the utilization of the original switch that
    would produce the same probe latencies — i.e. the x-coordinate at which
    to read an application's Fig. 7 degradation curve to predict its
    performance on the future system.

    Args:
        config: the *current* machine.
        factor: how much slower the future network is.
        calibration: reuse an existing idle calibration of ``config``.
        probe_interval / duration: probe settings.

    Returns:
        a pseudo-utilization in [0, 1).
    """
    from dataclasses import replace as _replace

    from ...queueing import utilization_from_sojourn
    from .calibration import calibrate as _calibrate
    from .impact import ImpactExperiment

    if calibration is None:
        calibration = _calibrate(config, duration=duration, probe_interval=probe_interval)
    weak_config = _replace(config, network=scaled_network(config.network, factor))
    experiment = ImpactExperiment(weak_config, None, probe_interval=probe_interval)
    result = experiment.measure(None, duration=duration)
    return utilization_from_sojourn(
        result.signature.mean, calibration.rate, calibration.variance
    )
