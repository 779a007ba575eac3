"""Prediction-model interface and shared fitting data.

Every model consumes the same training products (paper §IV):

* the 40 CompressionB configurations' probe signatures (from
  CompressionB+ImpactB runs), and
* per application, the measured percent degradation under each of those
  configurations (from app+CompressionB runs).

To predict the slowdown of application A co-running with workload B, a model
receives B's probe signature (from B's own impact experiment) and returns a
percent degradation for A.

:class:`FittedTable` is **canonical**: observations are sorted by config
label at construction, so the same campaign products yield the same table —
and therefore the same predictions — no matter what order the cache, the
engine, or a deserialized artifact happened to hand them over in.  Score
ties between configurations resolve to the lexicographically smallest
label (the first column of the sorted table), after AverageStDevLT's own
first tie-break: among configs with equal interval overlap, the closest
mean wins.

Fitting also precomputes the vectorized state every model scores against
(mean vector, µ±σ interval arrays, the bins×configs histogram-fraction
matrix, the apps×configs degradation matrix), so ``predict_batch`` never
rebuilds per-catalog structures per call and can answer many
(app, signature) queries with a handful of numpy operations.  A scalar
``predict`` is a one-row batch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...core.measurement import ProbeSignature
from ...errors import ModelError
from ..experiments.compression import CompressionObservation

__all__ = ["SlowdownModel", "FittedTable"]


class FittedTable:
    """The look-up table all models share: per-config signatures plus each
    application's degradation under each config.

    Canonicalized and vectorized at construction:

    Attributes:
        observations: the catalog, sorted by config label.
        labels: config labels in canonical (sorted) order.
        apps: application names in canonical (sorted) order.
        means: per-config mean probe latency, aligned to ``labels``.
        interval_lows / interval_highs: per-config µ∓σ interval bounds.
        utilizations: per-config P–K utilization estimates (NaN when the
            catalog was measured without calibration).
        edges: the shared histogram bin edges of the catalog.
        fraction_matrix: configs×bins histogram-fraction matrix (PDFLT's
            score is one matrix–vector product against it).
        deg_matrix: apps×configs measured % degradations.
    """

    def __init__(
        self,
        observations: Sequence[CompressionObservation],
        degradations: Dict[str, Dict[str, float]],
    ) -> None:
        if not observations:
            raise ModelError("cannot fit on an empty observation list")
        # Canonical order: the same products always produce the same table,
        # whatever sequence the cache or engine yielded them in.
        self.observations = sorted(observations, key=lambda obs: obs.label)
        self.by_label = {obs.label: obs for obs in self.observations}
        if len(self.by_label) != len(self.observations):
            raise ModelError("duplicate CompressionB config labels in observations")
        for app, table in degradations.items():
            missing = set(self.by_label) - set(table)
            if missing:
                raise ModelError(
                    f"app {app!r} lacks degradation entries for configs: {sorted(missing)}"
                )
        self.degradations = {app: dict(table) for app, table in degradations.items()}

        self.labels: List[str] = [obs.label for obs in self.observations]
        self.apps: List[str] = sorted(self.degradations)
        signatures = [obs.impact.signature for obs in self.observations]
        self.means = np.asarray([sig.mean for sig in signatures], dtype=float)
        self.interval_lows = np.asarray(
            [sig.interval[0] for sig in signatures], dtype=float
        )
        self.interval_highs = np.asarray(
            [sig.interval[1] for sig in signatures], dtype=float
        )
        self.utilizations = np.asarray(
            [sig.utilization for sig in signatures], dtype=float
        )
        self.edges = signatures[0].histogram.edges
        for obs, sig in zip(self.observations, signatures):
            if sig.histogram.edges.shape != self.edges.shape or not np.allclose(
                sig.histogram.edges, self.edges
            ):
                raise ModelError(
                    f"catalog histograms must share bin edges; config "
                    f"{obs.label!r} was binned differently"
                )
        self.fraction_matrix = np.vstack(
            [sig.histogram.fractions for sig in signatures]
        )
        if self.apps:
            self.deg_matrix = np.asarray(
                [
                    [self.degradations[app][label] for label in self.labels]
                    for app in self.apps
                ],
                dtype=float,
            )
        else:
            self.deg_matrix = np.zeros((0, len(self.labels)))
        self._app_rows = {app: row for row, app in enumerate(self.apps)}

    @property
    def app_names(self) -> List[str]:
        return list(self.apps)

    def app_row(self, app: str) -> int:
        """Row of ``app`` in :attr:`deg_matrix`."""
        try:
            return self._app_rows[app]
        except KeyError as exc:
            raise ModelError(f"no degradation table for app {app!r}") from exc

    def closest_mean_index(self, signature: ProbeSignature) -> int:
        """Catalog column with the nearest mean probe latency.

        Ties resolve to the first (lowest-label) column — the shared
        fallback rule of every model.
        """
        return int(np.argmin(np.abs(self.means - signature.mean)))

    def degradation(self, app: str, label: str) -> float:
        """Measured % degradation of ``app`` under config ``label``."""
        try:
            return self.degradations[app][label]
        except KeyError as exc:
            raise ModelError(f"no degradation entry for app={app!r}, config={label!r}") from exc


class SlowdownModel(ABC):
    """A slowdown predictor in the paper's sense."""

    #: Identifier used in reports ("AverageLT", "Queue", ...).
    name: str = "model"

    def __init__(self) -> None:
        self._table: FittedTable | None = None

    def fit(
        self,
        observations: Sequence[CompressionObservation],
        degradations: Dict[str, Dict[str, float]],
    ) -> "SlowdownModel":
        """Store the look-up products; returns self for chaining.

        Building the table canonicalizes and vectorizes the catalog, then
        :meth:`_prepare` gives each model a hook to derive its own state
        (and to reject unusable products up front, at fit time, rather
        than deep inside a prediction loop).
        """
        self._table = FittedTable(observations, degradations)
        self._prepare()
        return self

    def _prepare(self) -> None:
        """Hook run after fitting; models override to precompute/validate."""

    @property
    def table(self) -> FittedTable:
        if self._table is None:
            raise ModelError(f"{self.name} has not been fitted")
        return self._table

    def predict(self, app: str, other_signature: ProbeSignature) -> float:
        """Predict % slowdown of ``app`` co-running with a workload whose
        impact signature is ``other_signature``: a one-row
        :meth:`predict_batch`, so scalar and batch predictions are equal by
        construction."""
        return self.predict_batch([(app, other_signature)])[0]

    @abstractmethod
    def predict_batch(
        self, pairs: Sequence[Tuple[str, ProbeSignature]]
    ) -> List[float]:
        """Predict many (app, co-runner signature) queries, in order.

        Models score each distinct signature once and answer every app
        that asked about it from that score.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fitted" if self._table is not None else "unfitted"
        return f"<{type(self).__name__} {state}>"
