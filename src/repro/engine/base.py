"""The experiment-engine seam: the one dispatch and a fixed engine table.

An :class:`~repro.core.experiments.pipeline.ExperimentDescriptor` is a pure
*description* of one campaign experiment; an :class:`ExperimentEngine` is a
strategy for answering it.  :meth:`ExperimentEngine.run` is the one
dispatch: each product kind is answered by the engine's method of that
name, and the two co-run kinds are defined here once, as a slowdown beside
a looped interferer.  :func:`get_engine` resolves the three engine names
(``"sim"``, ``"analytic"``, ``"fluid"``) through a fixed table of modules
and classes, so the pipeline never hard-codes how a product gets computed.

The engine modules are imported only when first requested — this module
must stay import-light because the experiments pipeline imports it at
module load time (importing the engines eagerly here would close an import
cycle through :mod:`repro.core.experiments`).
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import ExperimentError, UnsupportedScenario
from ..workloads import CompressionB, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import MachineConfig
    from ..core.experiments.pipeline import ExperimentDescriptor

__all__ = [
    "EngineCapabilities",
    "ExperimentEngine",
    "get_engine",
    "available_engines",
    "ensure_scenario_supported",
    "supporting_engines",
]

#: Every fault kind the fault model can express (see
#: :meth:`repro.config.NetworkConfig.active_fault_kinds`).
ALL_FAULT_KINDS: Tuple[str, ...] = ("corrupt", "drop", "flap", "speed")

#: Every topology kind :class:`repro.config.TopologyConfig` can build.
ALL_TOPOLOGIES: Tuple[str, ...] = ("single", "leaf-spine")


@dataclass(frozen=True)
class EngineCapabilities:
    """What scenarios an engine can answer honestly.

    The pipeline checks a descriptor's :class:`~repro.config.MachineConfig`
    against these declarations *before* dispatching (see
    :func:`ensure_scenario_supported`), replacing per-engine ad-hoc refusal
    checks, so an unsupported scenario fails the same way whichever engine
    is asked — and the error can name the engines that would work.

    Attributes:
        topologies: topology kinds the engine models (``"single"``,
            ``"leaf-spine"``).
        fault_kinds: link-fault kinds the engine models (subset of
            :data:`ALL_FAULT_KINDS`); a scenario is supported only if every
            *active* fault kind is declared.
        max_leaves: cap on leaf-switch count for leaf-spine scenarios
            (``None`` = unbounded).  ``max_leaves=1`` admits only the
            degenerate fabric that behaves like a single switch.
        summary: one-line description for ``repro engines`` listings.
    """

    topologies: Tuple[str, ...] = ALL_TOPOLOGIES
    fault_kinds: Tuple[str, ...] = ALL_FAULT_KINDS
    max_leaves: Optional[int] = None
    summary: str = ""

    def unsupported_reason(self, config: "MachineConfig") -> Optional[str]:
        """Why this engine cannot answer ``config``, or ``None`` if it can."""
        topology = config.topology
        if topology.kind not in self.topologies:
            return f"topology {topology.kind!r} is not modelled"
        if (
            topology.kind == "leaf-spine"
            and self.max_leaves is not None
            and topology.leaf_count > self.max_leaves
        ):
            return (
                f"leaf-spine fabrics with more than {self.max_leaves} "
                f"leaf switch(es) are not modelled "
                f"(scenario has {topology.leaf_count})"
            )
        missing = [
            kind
            for kind in config.network.active_fault_kinds()
            if kind not in self.fault_kinds
        ]
        if missing:
            return f"link fault kind(s) {', '.join(missing)} are not modelled"
        return None


class ExperimentEngine(ABC):
    """One strategy for turning experiment descriptors into products.

    Each product kind of
    :data:`~repro.core.experiments.pipeline.PRODUCT_KINDS` is answered by
    the method of that name, which takes the descriptor and returns the
    product's JSON-ready value; an engine supplies the first four kinds and
    :meth:`slowdown`, which answers the last two.  Engines must be
    stateless between :meth:`run` calls (one instance is shared
    process-wide) and must return the same product shape for a given kind
    regardless of backend, so cached products deserialize identically
    whichever engine produced them.
    """

    #: Table name; also the cache-key qualifier (see pipeline._key).
    name: str = "engine"

    def run(self, descriptor: "ExperimentDescriptor") -> object:
        """Compute one descriptor's JSON-serializable product value.

        Raises:
            ExperimentError: the descriptor's kind is not a product kind.
        """
        # Imported here: the pipeline imports this module at load time.
        from ..core.experiments.pipeline import PRODUCT_KINDS

        kind = descriptor.kind
        if kind not in PRODUCT_KINDS:
            raise ExperimentError(f"unknown descriptor kind {kind!r}")
        with telemetry.span(f"solve:{kind}", "engine", engine=self.name):
            result = getattr(self, kind)(descriptor)
        if telemetry.enabled():
            telemetry.registry().counter_inc(
                "engine.products", kind=kind, engine=self.name
            )
        return result

    @abstractmethod
    def calibration(self, descriptor: "ExperimentDescriptor") -> dict:
        """The idle switch's :class:`~repro.queueing.ServiceEstimate`."""

    @abstractmethod
    def impact(self, descriptor: "ExperimentDescriptor") -> dict:
        """The probe's :class:`~repro.core.experiments.impact.ImpactResult`
        beside the looped workload (an idle switch without one)."""

    @abstractmethod
    def comp_sig(self, descriptor: "ExperimentDescriptor") -> dict:
        """The CompressionB config's
        :class:`~repro.core.experiments.compression.CompressionObservation`."""

    @abstractmethod
    def baseline(self, descriptor: "ExperimentDescriptor") -> float:
        """The workload's isolated runtime."""

    @abstractmethod
    def slowdown(
        self, descriptor: "ExperimentDescriptor", interferer: Workload
    ) -> float:
        """Percent slowdown of the workload while ``interferer`` loops
        beside it, against the descriptor's baseline."""

    def degradation(self, descriptor: "ExperimentDescriptor") -> float:
        """The slowdown beside the descriptor's CompressionB config."""
        return self.slowdown(descriptor, CompressionB(descriptor.comp_config))

    def pair(self, descriptor: "ExperimentDescriptor") -> float:
        """The slowdown beside the co-running application."""
        return self.slowdown(descriptor, descriptor.other)

    def capabilities(self) -> EngineCapabilities:
        """The scenarios this engine handles; default claims everything.

        Engines with modelling limits (closed-form backends, topology
        restrictions) override this so the pipeline refuses up front
        instead of letting them answer with silently-wrong math.
        """
        return EngineCapabilities()


#: Each engine's module (relative to this package) and class, imported and
#: built on the first :func:`get_engine` call for its name.
_ENGINES: Dict[str, Tuple[str, str]] = {
    "sim": (".simulation", "SimulationEngine"),
    "analytic": (".analytic", "AnalyticEngine"),
    "fluid": (".fluid", "FluidEngine"),
}

_INSTANCES: Dict[str, ExperimentEngine] = {}


def get_engine(name: str) -> ExperimentEngine:
    """Resolve an engine by name, importing its module on first use.

    Instances are cached: repeated calls return the same object.

    Raises:
        ExperimentError: for a name the engine table does not hold.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    if name not in _ENGINES:
        raise ExperimentError(
            f"unknown experiment engine {name!r}; "
            f"available: {', '.join(available_engines())}"
        )
    module, cls = _ENGINES[name]
    instance = getattr(importlib.import_module(module, __package__), cls)()
    _INSTANCES[name] = instance
    return instance


def available_engines() -> List[str]:
    """Names resolvable by :func:`get_engine`, sorted."""
    return sorted(_ENGINES)


def supporting_engines(config: "MachineConfig") -> List[str]:
    """Engine names whose capabilities cover ``config``."""
    return [
        name
        for name in available_engines()
        if get_engine(name).capabilities().unsupported_reason(config) is None
    ]


def ensure_scenario_supported(
    engine: ExperimentEngine, config: "MachineConfig"
) -> None:
    """Refuse dispatch when a scenario exceeds an engine's capabilities.

    Called by :func:`repro.core.experiments.pipeline.run_experiment` before
    every ``engine.run``.  The error names the engines that *do* support
    the scenario, so the fix (usually ``--engine sim`` or ``--engine
    fluid``) is in the message.

    Raises:
        UnsupportedScenario: with the engine's reason and alternatives.
    """
    reason = engine.capabilities().unsupported_reason(config)
    if reason is None:
        return
    alternatives = [
        name for name in supporting_engines(config) if name != engine.name
    ]
    if alternatives:
        hint = f"supported by: {', '.join(alternatives)}"
    else:
        hint = "no engine supports this scenario"
    raise UnsupportedScenario(
        f"engine {engine.name!r} cannot model this scenario: {reason}; {hint}"
    )
