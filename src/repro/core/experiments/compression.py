"""Compression and co-run experiments (paper §III-B, §IV-C, §IV-D, §V).

Three measurement kinds:

* :meth:`CompressionExperiment.signature_of` — run a CompressionB config
  together with ImpactB (no application) to characterize how much switch
  capability the config removes (Fig. 6's x-axis values).

* :func:`isolated_runtime` — an application's runtime alone on the
  machine, the baseline every slowdown is relative to.

* :func:`corun_slowdown` — run an application to completion while an
  interferer loops beside it (the paper runs "each benchmark in continuous
  loops") and report its percent slowdown relative to its isolated
  baseline.  With a CompressionB config as the interferer this is a Fig. 7
  degradation; with another application (or a second copy of the same
  one) it is one of Table I's 36 pairwise co-runs, the ground truth the
  models must predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...config import MachineConfig
from ...errors import ExperimentError
from ...queueing import ServiceEstimate
from ...units import MS
from ...workloads import CompressionB, CompressionConfig, Workload
from .impact import ImpactExperiment, ImpactResult
from .runner import JobSpec, execute

__all__ = [
    "CompressionObservation",
    "CompressionExperiment",
    "corun_slowdown",
    "isolated_runtime",
    "percent_slowdown",
]


def percent_slowdown(with_interference: float, baseline: float) -> float:
    """The paper's degradation metric: 100·(T_int − T_base)/T_base."""
    if baseline <= 0:
        raise ExperimentError(f"baseline runtime must be positive, got {baseline}")
    return 100.0 * (with_interference - baseline) / baseline


def isolated_runtime(config: MachineConfig, app: Workload) -> float:
    """The application's runtime alone on a fresh ``config`` machine."""
    return execute(config, [JobSpec(app, app.name)]).elapsed_of(app.name)


def corun_slowdown(
    config: MachineConfig,
    app: Workload,
    interferer: Workload,
    baseline: Optional[float] = None,
) -> float:
    """Percent slowdown of ``app`` while ``interferer`` loops beside it.

    The interferer loops as a daemon so the switch stays loaded for the
    whole of ``app``'s run.  The two never share cores (the machine's
    occupancy tracking enforces this); its job label is its own name, with
    ``#2`` appended when it is a second copy of ``app`` (two placements of
    one app, the paper's capability-computing use case).  ``baseline``
    defaults to a fresh :func:`isolated_runtime`.
    """
    if baseline is None:
        baseline = isolated_runtime(config, app)
    label = interferer.name
    if label == app.name:
        label += "#2"
    result = execute(
        config,
        [JobSpec(interferer, label, daemon=True), JobSpec(app, app.name)],
    )
    return percent_slowdown(result.elapsed_of(app.name), baseline)


@dataclass(frozen=True)
class CompressionObservation:
    """One CompressionB config's measured switch signature."""

    config: CompressionConfig
    impact: ImpactResult

    @property
    def label(self) -> str:
        return self.config.label

    @property
    def utilization(self) -> float:
        """The P–K utilization estimate for this config (Fig. 6 value)."""
        return self.impact.signature.utilization

    def to_dict(self) -> dict:
        return {
            "partners": self.config.partners,
            "messages": self.config.messages,
            "sleep_cycles": self.config.sleep_cycles,
            "message_bytes": self.config.message_bytes,
            "impact": self.impact.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CompressionObservation":
        return cls(
            config=CompressionConfig(
                partners=data["partners"],
                messages=data["messages"],
                sleep_cycles=data["sleep_cycles"],
                message_bytes=data["message_bytes"],
            ),
            impact=ImpactResult.from_dict(data["impact"]),
        )


class CompressionExperiment:
    """Runs CompressionB configurations alone and against applications."""

    def __init__(
        self,
        config: MachineConfig,
        calibration: Optional[ServiceEstimate] = None,
        probe_interval: float = 0.25 * MS,
    ) -> None:
        self.config = config
        self.calibration = calibration
        self.probe_interval = probe_interval

    # ------------------------------------------------------------------
    def signature_of(
        self, comp_config: CompressionConfig, duration: float = 0.03
    ) -> CompressionObservation:
        """Measure a config's switch signature via CompressionB+ImpactB.

        "we run it together with ImpactB just like any other software
        component ImpactB may measure" (§IV-C).
        """
        experiment = ImpactExperiment(
            self.config, self.calibration, probe_interval=self.probe_interval
        )
        impact = experiment.measure(CompressionB(comp_config), duration=duration)
        return CompressionObservation(config=comp_config, impact=impact)

    # ------------------------------------------------------------------
    def baseline(self, app: Workload) -> float:
        """The application's isolated runtime on this machine."""
        return isolated_runtime(self.config, app)

    def degradation(
        self,
        app: Workload,
        comp_config: CompressionConfig,
        baseline: Optional[float] = None,
    ) -> float:
        """Percent slowdown of ``app`` when co-run with a CompressionB config."""
        return corun_slowdown(self.config, app, CompressionB(comp_config), baseline)
