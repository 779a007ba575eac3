"""Impact experiments (paper §III-A): probe a workload's switch signature.

The target workload runs continuously (looped) while ImpactB samples packet
latencies from dedicated cores.  The product is a
:class:`~repro.core.measurement.ProbeSignature` — mean, deviation, full
histogram, and the P–K utilization estimate — plus the simulator's
ground-truth utilization for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...config import MachineConfig
from ...core.measurement import LatencyCollector, ProbeSignature
from ...errors import ExperimentError
from ...queueing import ServiceEstimate
from ...units import MS
from ...workloads import ImpactB, Workload
from .runner import JobSpec, execute

__all__ = ["ImpactResult", "ImpactExperiment"]


@dataclass(frozen=True)
class ImpactResult:
    """Outcome of one impact experiment."""

    signature: ProbeSignature
    true_utilization: float
    sim_time: float

    def to_dict(self) -> dict:
        return {
            "signature": self.signature.to_dict(),
            "true_utilization": self.true_utilization,
            "sim_time": self.sim_time,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ImpactResult":
        return cls(
            signature=ProbeSignature.from_dict(data["signature"]),
            true_utilization=data["true_utilization"],
            sim_time=data["sim_time"],
        )


class ImpactExperiment:
    """Runs ImpactB against target workloads.

    Args:
        config: machine description.
        calibration: idle-switch service estimate (enables utilization
            estimates on the resulting signatures).
        probe_interval: mean gap between probe exchanges (the paper's 100 ms,
            scaled; see DESIGN.md).
        warmup_fraction: leading fraction of samples discarded (startup
            transient while the workload fills the switch).
    """

    def __init__(
        self,
        config: MachineConfig,
        calibration: Optional[ServiceEstimate] = None,
        probe_interval: float = 0.25 * MS,
        warmup_fraction: float = 0.1,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ExperimentError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        self.config = config
        self.calibration = calibration
        self.probe_interval = probe_interval
        self.warmup_fraction = warmup_fraction

    def measure(
        self,
        workload: Optional[Workload] = None,
        duration: float = 0.03,
        min_samples: int = 20,
    ) -> ImpactResult:
        """Probe the switch while ``workload`` runs (or idle if None).

        The workload is looped so the switch never drains mid-measurement
        (the paper runs each benchmark "in continuous loops").
        """
        collector = LatencyCollector()
        probe = ImpactB(collector, interval=self.probe_interval)
        # ImpactB never returns, so running it as a looped daemon job
        # schedules exactly the events of a single launch.
        specs = [JobSpec(probe, "impactb", daemon=True)]
        if workload is not None:
            specs.append(JobSpec(workload, workload.name, daemon=True))
        warmup_time = duration * self.warmup_fraction
        run = execute(self.config, specs, duration=duration, warmup=warmup_time)

        values = collector.values_after(warmup_time)
        if len(values) < min_samples:
            raise ExperimentError(
                f"impact run collected {len(values)} samples (need {min_samples}); "
                "increase duration or lower the probe interval"
            )
        signature = ProbeSignature.from_samples(values, self.calibration)
        return ImpactResult(
            signature=signature,
            true_utilization=run.true_utilization,
            sim_time=run.sim_time,
        )
