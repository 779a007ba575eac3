"""The three look-up-table models (paper §IV-A).

All three select the CompressionB configuration whose probe signature most
resembles the co-runner's signature, then return the measured degradation of
the target application under that configuration.  They differ only in the
resemblance metric:

* **AverageLT** — closest mean latency |µ_B − µ_Ci|;
* **AverageStDevLT** — largest overlap of the intervals [µ±σ];
* **PDFLT** — largest histogram mass overlap Σᵢ p_i q_i (the discretized
  ∫ f_B f_Ci of the paper).

Each model reduces to one function, ``_match_index``, mapping a co-runner
signature to a catalog column of the canonical :class:`FittedTable`; the
prediction is then a single element read of the apps×configs degradation
matrix.  Scores are computed as vector operations over the table's
precomputed state.  AverageStDevLT breaks overlap ties by the closest
mean; every remaining tie resolves to the first (lowest-label) column.
``predict_batch`` computes the match once per distinct signature — so
output is independent of catalog iteration order, and a scalar
``predict`` (a one-row batch) equals the batch by construction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...core.measurement import ProbeSignature
from ...errors import ExperimentError
from .base import SlowdownModel

__all__ = ["AverageLT", "AverageStDevLT", "PDFLT"]


class _CatalogMatchModel(SlowdownModel):
    """Shared select-a-config-then-read-the-table machinery."""

    def _match_index(self, other_signature: ProbeSignature) -> int:
        """Catalog column this model matches ``other_signature`` to."""
        raise NotImplementedError

    def predict_batch(
        self, pairs: Sequence[Tuple[str, ProbeSignature]]
    ) -> List[float]:
        table = self.table
        if not pairs:
            return []
        rows = np.empty(len(pairs), dtype=np.intp)
        cols = np.empty(len(pairs), dtype=np.intp)
        matched: dict[int, int] = {}
        for index, (app, signature) in enumerate(pairs):
            rows[index] = table.app_row(app)
            column = matched.get(id(signature))
            if column is None:
                column = self._match_index(signature)
                matched[id(signature)] = column
            cols[index] = column
        return [float(value) for value in table.deg_matrix[rows, cols]]


class AverageLT(_CatalogMatchModel):
    """Match on mean probe latency."""

    name = "AverageLT"

    def _match_index(self, other_signature: ProbeSignature) -> int:
        return self.table.closest_mean_index(other_signature)


class AverageStDevLT(_CatalogMatchModel):
    """Match on the overlap of the µ±σ intervals.

    A co-runner's narrow interval often sits inside many wide catalog
    intervals, so the overlap length ties across several configurations.
    Ties go to the tied configuration with the closest mean |µ_C − µ_B|,
    then to the lowest label.  If no configuration's interval intersects
    the target's (all overlaps zero), fall back to the closest-mean choice.
    The paper defines neither case; both rules keep the model total.
    """

    name = "AverageStDevLT"

    def _match_index(self, other_signature: ProbeSignature) -> int:
        table = self.table
        low, high = other_signature.interval
        overlaps = np.minimum(table.interval_highs, high) - np.maximum(
            table.interval_lows, low
        )
        np.maximum(overlaps, 0.0, out=overlaps)
        best = overlaps.max()
        if best <= 0.0:
            return table.closest_mean_index(other_signature)
        tied = np.flatnonzero(overlaps == best)
        distances = np.abs(table.means[tied] - other_signature.mean)
        return int(tied[np.argmin(distances)])


class PDFLT(_CatalogMatchModel):
    """Match on the full latency distribution.

    The affinity Σᵢ pᵢ qᵢ can be zero for every configuration when the
    target's histogram mass lies entirely beyond the shared bin range (an
    extremely loaded co-runner); the model then falls back to closest mean.
    """

    name = "PDFLT"

    def _match_index(self, other_signature: ProbeSignature) -> int:
        table = self.table
        histogram = other_signature.histogram
        if histogram.edges.shape != table.edges.shape or not np.allclose(
            histogram.edges, table.edges
        ):
            raise ExperimentError("histograms must share bin edges to be compared")
        affinities = table.fraction_matrix @ histogram.fractions
        best = int(np.argmax(affinities))
        if affinities[best] <= 0.0:
            return table.closest_mean_index(other_signature)
        return best
