"""Pluggable experiment engines.

The reproduction pipeline describes every experiment as an
:class:`~repro.core.experiments.pipeline.ExperimentDescriptor` and hands it
to an :class:`ExperimentEngine` for execution.  Three engines ship, named
in :func:`get_engine`'s fixed table:

* ``sim`` (:mod:`repro.engine.simulation`) — the discrete-event simulator,
  the default and the reference, and the only engine that models link
  faults.
* ``analytic`` (:mod:`repro.engine.analytic`) — a closed-form M/G/1
  fast path that answers the same descriptors from queueing math in
  milliseconds; single switch only.
* ``fluid`` (:mod:`repro.engine.fluid`) — flow-level fixed points over the
  per-switch/per-link demand the :mod:`repro.scenario` seam produces;
  scales healthy leaf-spine campaigns to 1000+ nodes.

:meth:`ExperimentEngine.run` is the one dispatch from a descriptor's kind
to the engine method of that name.  Every engine declares
:class:`EngineCapabilities`; the pipeline checks a descriptor's scenario
against them via :func:`ensure_scenario_supported` before dispatch, so
unsupported scenarios fail identically (naming the engines that would
work) whichever engine was asked.

Only the seam is imported here; engine modules load lazily via
:func:`get_engine` to keep the import graph acyclic.
"""

from .base import (
    EngineCapabilities,
    ExperimentEngine,
    available_engines,
    ensure_scenario_supported,
    get_engine,
    supporting_engines,
)

__all__ = [
    "EngineCapabilities",
    "ExperimentEngine",
    "get_engine",
    "available_engines",
    "ensure_scenario_supported",
    "supporting_engines",
]
