"""The experiment-engine seam: protocol + registry.

An :class:`~repro.core.experiments.pipeline.ExperimentDescriptor` is a pure
*description* of one campaign experiment; an :class:`ExperimentEngine` is a
strategy for answering it.  The registry maps engine names (``"sim"``,
``"analytic"``, ``"fluid"``) to lazily-constructed engine instances, so the
pipeline never hard-codes how a product gets computed.

Built-in engines live in sibling modules that are imported only when first
requested — this module must stay import-light because the experiments
pipeline imports it at module load time (importing the engines eagerly here
would close an import cycle through :mod:`repro.core.experiments`).

Third parties (tests, ablation studies) can plug in their own backend:

    >>> from repro.engine import register_engine
    >>> register_engine("null", lambda: MyNullEngine())   # doctest: +SKIP
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import ExperimentError, UnsupportedScenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import MachineConfig
    from ..core.experiments.pipeline import ExperimentDescriptor

__all__ = [
    "EngineCapabilities",
    "ExperimentEngine",
    "register_engine",
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

    The registry checks a descriptor's :class:`~repro.config.MachineConfig`
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
        min_nodes / max_nodes: node-count range (``None`` = unbounded).
        summary: one-line description for ``repro engines`` listings.
    """

    topologies: Tuple[str, ...] = ALL_TOPOLOGIES
    fault_kinds: Tuple[str, ...] = ALL_FAULT_KINDS
    max_leaves: Optional[int] = None
    min_nodes: int = 1
    max_nodes: Optional[int] = None
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
        if config.node_count < self.min_nodes:
            return (
                f"needs at least {self.min_nodes} nodes "
                f"(scenario has {config.node_count})"
            )
        if self.max_nodes is not None and config.node_count > self.max_nodes:
            return (
                f"supports at most {self.max_nodes} nodes "
                f"(scenario has {config.node_count})"
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

    Engines must be stateless between :meth:`run` calls (one instance is
    shared process-wide) and must return the same JSON-ready product shape
    for a given descriptor ``kind`` regardless of backend, so cached
    products deserialize identically whichever engine produced them.
    """

    #: Registry name; also the cache-key qualifier (see pipeline._key).
    name: str = "engine"

    @abstractmethod
    def run(self, descriptor: "ExperimentDescriptor") -> object:
        """Compute one descriptor's JSON-serializable product value."""

    def capabilities(self) -> EngineCapabilities:
        """The scenarios this engine handles; default claims everything.

        Engines with modelling limits (closed-form backends, topology
        restrictions) override this so the registry refuses up front instead
        of letting them answer with silently-wrong math.
        """
        return EngineCapabilities()


#: Built-in engines, resolved lazily on first :func:`get_engine` call.
_BUILTIN_MODULES: Dict[str, str] = {
    "sim": ".simulation",
    "analytic": ".analytic",
    "fluid": ".fluid",
}

_FACTORIES: Dict[str, Callable[[], ExperimentEngine]] = {}
_INSTANCES: Dict[str, ExperimentEngine] = {}


def register_engine(
    name: str,
    factory: Callable[[], ExperimentEngine],
    *,
    replace: bool = False,
) -> None:
    """Register an engine factory under ``name``.

    Args:
        name: registry key (also used to qualify cache keys; keep it short
            and filesystem-friendly).
        factory: zero-argument callable building the engine instance.
        replace: allow overwriting an existing registration.

    Raises:
        ExperimentError: on duplicate registration without ``replace``.
    """
    if not name or "/" in name:
        raise ExperimentError(f"invalid engine name {name!r}")
    if name in _FACTORIES and not replace:
        raise ExperimentError(f"engine {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def get_engine(name: str) -> ExperimentEngine:
    """Resolve an engine by name, importing built-ins on demand.

    Instances are cached: repeated calls return the same object.

    Raises:
        ExperimentError: for names neither registered nor built-in.
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    if name not in _FACTORIES and name in _BUILTIN_MODULES:
        # The module registers itself at import time.
        importlib.import_module(_BUILTIN_MODULES[name], __package__)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ExperimentError(
            f"unknown experiment engine {name!r}; "
            f"available: {', '.join(available_engines())}"
        )
    instance = factory()
    _INSTANCES[name] = instance
    return instance


def available_engines() -> List[str]:
    """Names resolvable by :func:`get_engine` (built-ins + registered)."""
    return sorted(set(_FACTORIES) | set(_BUILTIN_MODULES))


def supporting_engines(config: "MachineConfig") -> List[str]:
    """Registered engine names whose capabilities cover ``config``."""
    names = []
    for name in available_engines():
        try:
            engine = get_engine(name)
        except ExperimentError:  # pragma: no cover - racing deregistration
            continue
        if engine.capabilities().unsupported_reason(config) is None:
            names.append(name)
    return names


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
        hint = "no registered engine supports this scenario"
    raise UnsupportedScenario(
        f"engine {engine.name!r} cannot model this scenario: {reason}; {hint}"
    )
