"""Exception hierarchy and failure taxonomy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still letting
programming errors (``TypeError`` etc.) propagate.

The module also defines :class:`FailureRecord`, the structured unit of the
campaign's failure accounting: a partial campaign does not raise a stack
trace, it finishes with holes and a machine-readable list of these records.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ProcessFailure",
    "MPIError",
    "EstimationError",
    "ExperimentError",
    "AnalyticModelError",
    "UnsupportedScenario",
    "ModelError",
    "ArtifactError",
    "RegistryError",
    "CorruptDocument",
    "InjectedFault",
    "FailureRecord",
    "FAILURE_CATEGORIES",
    "CampaignError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly or broke down."""


class ProcessFailure(SimulationError):
    """A simulated process raised an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process_name: str, message: str = "") -> None:
        self.process_name = process_name
        detail = f": {message}" if message else ""
        super().__init__(f"simulated process {process_name!r} failed{detail}")


class MPIError(ReproError):
    """Misuse of the simulated message-passing layer."""


class EstimationError(ReproError):
    """A queueing-theory estimator could not produce a valid estimate."""


class ExperimentError(ReproError):
    """An experiment was configured or executed incorrectly."""


class AnalyticModelError(ExperimentError):
    """The analytic engine was asked for a product outside its validity range.

    The closed-form M/G/1 backend assumes Poisson packet arrivals and a
    stable, lightly-to-moderately loaded switch; rather than extrapolate
    silently it refuses loudly.  Callers should fall back to the simulation
    engine for such experiments.
    """


class UnsupportedScenario(AnalyticModelError):
    """A scenario exceeds the chosen engine's declared capabilities.

    Raised by registry-level capability dispatch
    (:func:`repro.engine.ensure_scenario_supported`) before an engine ever
    sees the descriptor — a scenario an engine cannot model must never
    silently receive wrong answers (e.g. single-switch math for a faulted
    fabric).  The message names the engines that *do* support the scenario;
    the packet-level simulation engine handles every scenario.
    """


class ModelError(ReproError):
    """A prediction model was queried before being fitted, or misused."""


class ArtifactError(ReproError):
    """A fitted-model artifact is corrupt, truncated, or incompatible.

    Raised by :mod:`repro.serving.artifact` when a file fails the checksum
    envelope, carries an unknown format version, or lacks required fields —
    a damaged artifact is rejected loudly, never served from.
    """


class RegistryError(ReproError):
    """A model-registry operation was invalid or the registry is damaged.

    Raised by :mod:`repro.serving.registry` when a version is unknown, a
    version name collides or is malformed, the ``CURRENT`` pointer is
    garbled, or a rollback is requested with no promotion history.  Artifact
    *content* damage keeps raising :class:`ArtifactError` — promotion
    verifies the artifact before the pointer ever moves.
    """


class CorruptDocument(ReproError):
    """A JSON file or body could not be read back as a document (see
    :mod:`repro.jsonfile`); callers map it to their own outcome."""


class InjectedFault(ReproError):
    """A deliberate failure raised by the fault-injection hook.

    Never raised in normal operation — only when a fault plan
    (:mod:`repro.faults`) names the current experiment and attempt.  Tests
    and CI use it to exercise every recovery path deterministically.
    """


#: The closed set of ways one campaign task can fail.
#:
#: ``exception``    — the experiment function raised.
#: ``timeout``      — the task exceeded its per-task deadline and its worker
#:                    was killed.
#: ``worker-crash`` — the hosting worker process died (segfault, ``os._exit``,
#:                    OOM kill) and took the pool down with it.
#: ``dependency``   — never attempted: an input product (e.g. the app's
#:                    baseline) failed upstream.
#: ``unsupported``  — the engine deterministically refused the scenario
#:                    (:class:`AnalyticModelError`: model-domain limit such
#:                    as utilization beyond the validity ceiling), or the
#:                    product depends on such a refusal.  Deterministic, so
#:                    never retried; a documented hole, exempt from the
#:                    failure budget (which guards against infrastructure
#:                    flakiness, not model limits).
FAILURE_CATEGORIES = ("exception", "timeout", "worker-crash", "dependency", "unsupported")

#: Exception type names whose task failures are model refusals, not bugs:
#: deterministic "this scenario is outside my validity domain" errors.  The
#: runner sees worker exceptions stringified as ``"TypeName: detail"``, so
#: classification is by concrete type name.
MODEL_REFUSAL_TYPES = ("AnalyticModelError", "UnsupportedScenario")


def classify_failure_message(message: str) -> str:
    """Failure category for a stringified task exception (``"TypeName: detail"``).

    Model refusals (:data:`MODEL_REFUSAL_TYPES`) classify as ``unsupported``;
    everything else is a plain ``exception``.
    """
    type_name = message.split(":", 1)[0]
    return "unsupported" if type_name in MODEL_REFUSAL_TYPES else "exception"


@dataclass
class FailureRecord:
    """One task's terminal (or retried) failure, machine-readable.

    Attributes:
        key: the product's cache key.
        category: one of :data:`FAILURE_CATEGORIES`.
        message: ``"TypeName: detail"`` of the underlying error.
        attempts: attempts consumed when the record was cut (0 for
            ``dependency`` records, which never run).
        kind: experiment kind (``impact``, ``pair``, …); filled in by the
            pipeline, empty for generic tasks.
        elapsed: seconds spent across all attempts, where known.
    """

    key: str
    category: str
    message: str
    attempts: int = 1
    kind: str = ""
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.category not in FAILURE_CATEGORIES:
            raise ConfigurationError(
                f"unknown failure category {self.category!r}; "
                f"expected one of {', '.join(FAILURE_CATEGORIES)}"
            )

    def to_dict(self) -> dict:
        """JSON-serializable form (the failure report's row format)."""
        return {
            "key": self.key,
            "category": self.category,
            "message": self.message,
            "attempts": self.attempts,
            "kind": self.kind,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        return cls(
            key=data["key"],
            category=data["category"],
            message=data["message"],
            attempts=int(data.get("attempts", 1)),
            kind=data.get("kind", ""),
            elapsed=float(data.get("elapsed", 0.0)),
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.key} [{self.category}] after {self.attempts} attempt(s): "
            f"{self.message}"
        )


class CampaignError(ExperimentError):
    """The campaign's permanent failures exceeded its failure budget, or its
    calibration failed.

    Carries the :class:`FailureRecord` s behind it — the charged ones for a
    blown budget, the calibration's for a failed calibration — so callers
    can emit a structured report; ``failure_report.json`` holds them all.
    """

    def __init__(self, message: str, failures: "list[FailureRecord]" = ()) -> None:  # type: ignore[assignment]
        self.failures = list(failures)
        super().__init__(message)
