"""Idle-switch calibration (paper §IV-B).

"µ is a hardware parameter that is measured by sending multiple individual
packets into an idle switch"; Var(S) comes from the same single-packet
experiments.  We run ImpactB on an otherwise idle machine and fit a
:class:`~repro.queueing.ServiceEstimate` to the observed latencies.

Note that, exactly as in the paper, the resulting "service time" is the
whole idle path traversal (NIC + wire + switch), not the switch's internal
service alone.  The P–K inversion built on it is therefore a *consistent
coordinate*, not a physical truth — the prediction pipeline only ever
compares utilization estimates produced by this same procedure, so the bias
cancels.  The ablation benchmark quantifies the residual bias against the
simulator's ground-truth counters.
"""

from __future__ import annotations

from ...config import MachineConfig
from ...core.measurement import LatencyCollector
from ...errors import ExperimentError
from ...queueing import ServiceEstimate
from ...units import MS
from ...workloads import ImpactB
from .runner import JobSpec, execute

__all__ = ["calibrate"]


def calibrate(
    config: MachineConfig,
    duration: float = 0.05,
    probe_interval: float = 0.25 * MS,
    min_samples: int = 50,
) -> ServiceEstimate:
    """Measure the idle-switch service estimate (µ, Var(S)).

    Args:
        config: machine to calibrate.
        duration: simulated seconds of probing.
        probe_interval: mean gap between probe exchanges.
        min_samples: minimum acceptable sample count.

    Raises:
        ExperimentError: if too few samples were collected (duration too
            short for the probe interval).
    """
    collector = LatencyCollector()
    probe = ImpactB(collector, interval=probe_interval)
    execute(config, [JobSpec(probe, "calibration", daemon=True)], duration=duration)
    if collector.count < min_samples:
        raise ExperimentError(
            f"calibration collected only {collector.count} samples "
            f"(need {min_samples}); increase duration or lower the interval"
        )
    return ServiceEstimate.from_samples(collector.values())
