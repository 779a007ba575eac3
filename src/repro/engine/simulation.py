"""The simulation engine: experiments answered by discrete-event simulation.

The reference engine.  Each product builds a fresh machine from the
descriptor's config and runs the experiment of its kind: the idle
calibration, an ImpactB probe beside a looped workload, or an application
alone or beside a looped interferer (:func:`isolated_runtime` and
:func:`corun_slowdown`, which answer both co-run kinds).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.experiments.calibration import calibrate
from ..core.experiments.compression import (
    CompressionExperiment,
    corun_slowdown,
    isolated_runtime,
)
from ..core.experiments.impact import ImpactExperiment
from ..queueing import ServiceEstimate
from ..workloads import Workload
from .base import EngineCapabilities, ExperimentEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiments.pipeline import ExperimentDescriptor

__all__ = ["SimulationEngine"]


class SimulationEngine(ExperimentEngine):
    """Executes descriptors on the event-driven simulator (the reference)."""

    name = "sim"

    def capabilities(self) -> EngineCapabilities:
        """The reference engine models everything the config can express."""
        return EngineCapabilities(
            summary="packet-level discrete-event simulation (ground truth)",
        )

    def calibration(self, descriptor: "ExperimentDescriptor") -> dict:
        settings = descriptor.settings
        return calibrate(
            descriptor.machine_config,
            duration=settings.calibration_duration,
            probe_interval=settings.probe_interval,
        ).to_dict()

    @staticmethod
    def _probed(descriptor: "ExperimentDescriptor") -> tuple:
        """A probed experiment's machine, idle calibration and probe interval."""
        calibration = descriptor.calibration
        return (
            descriptor.machine_config,
            None if calibration is None else ServiceEstimate.from_dict(calibration),
            descriptor.settings.probe_interval,
        )

    def impact(self, descriptor: "ExperimentDescriptor") -> dict:
        experiment = ImpactExperiment(*self._probed(descriptor))
        return experiment.measure(
            descriptor.workload, duration=descriptor.settings.impact_duration
        ).to_dict()

    def comp_sig(self, descriptor: "ExperimentDescriptor") -> dict:
        experiment = CompressionExperiment(*self._probed(descriptor))
        return experiment.signature_of(
            descriptor.comp_config, duration=descriptor.settings.signature_duration
        ).to_dict()

    def baseline(self, descriptor: "ExperimentDescriptor") -> float:
        return isolated_runtime(descriptor.machine_config, descriptor.workload)

    def slowdown(
        self, descriptor: "ExperimentDescriptor", interferer: Workload
    ) -> float:
        return corun_slowdown(
            descriptor.machine_config,
            descriptor.workload,
            interferer,
            descriptor.baseline,
        )
