"""Phase-aware queue model — an extension fixing the paper's known failure.

§V-B of the paper diagnoses its one large error (predicting FFTW's slowdown
next to AMG): "AMG executions go through phases that do not significantly
use the network ... which is something that the queue model has not
considered as it assumes a constant utilization of the network".

This model drops the constant-utilization assumption.  It splits the
co-runner's probe-latency *histogram* into two latency phases (a weighted
2-means clustering over bin centers), inverts each phase's mean latency to
its own utilization via Pollaczek–Khinchine, and predicts the target
application's degradation as the mass-weighted combination of the
per-phase predictions:

    prediction = w_low · p_A(ρ_low) + w_high · p_A(ρ_high)

For unimodal (steady) co-runners the two phases collapse and the model
reduces to the paper's queue model; for phase-alternating co-runners like
AMG it avoids attributing the busy-phase latency to the entire run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...core.measurement import LatencyHistogram, ProbeSignature
from ...errors import ModelError
from ...queueing import ServiceEstimate, utilization_from_sojourn
from .queue_model import QueueModel

__all__ = ["PhaseAwareQueueModel", "split_phases"]


def split_phases(
    histogram: LatencyHistogram, max_iterations: int = 50
) -> List[Tuple[float, float]]:
    """Split a latency histogram into (weight, mean-latency) phases.

    A weighted 2-means over bin centers (overflow mass is assigned to the
    slow cluster at 1.5× the last edge).  Returns one phase when the
    distribution is effectively unimodal (a cluster would be empty or the
    separation is negligible).

    Returns:
        list of ``(mass_fraction, mean_latency_seconds)``, ascending in
        latency, whose mass fractions sum to 1.
    """
    centers = list(histogram.centers)
    weights = list(histogram.fractions)
    if histogram.overflow_fraction > 0:
        centers.append(float(histogram.edges[-1]) * 1.5)
        weights.append(histogram.overflow_fraction)
    centers_arr = np.asarray(centers)
    weights_arr = np.asarray(weights)
    mask = weights_arr > 0
    centers_arr = centers_arr[mask]
    weights_arr = weights_arr[mask]
    if centers_arr.size == 0:
        raise ModelError("cannot split an empty histogram")
    total_mean = float(np.average(centers_arr, weights=weights_arr))
    if centers_arr.size == 1:
        return [(1.0, total_mean)]

    # Initialize the two means at the weighted 10th/90th percentiles.
    order = np.argsort(centers_arr)
    cumulative = np.cumsum(weights_arr[order]) / weights_arr.sum()
    low = float(centers_arr[order][np.searchsorted(cumulative, 0.1)])
    high = float(centers_arr[order][min(np.searchsorted(cumulative, 0.9), len(order) - 1)])
    if high <= low:
        return [(1.0, total_mean)]

    for _ in range(max_iterations):
        boundary = (low + high) / 2.0
        low_mask = centers_arr <= boundary
        low_weight = float(weights_arr[low_mask].sum())
        high_weight = float(weights_arr[~low_mask].sum())
        if low_weight == 0.0 or high_weight == 0.0:
            return [(1.0, total_mean)]
        new_low = float(np.average(centers_arr[low_mask], weights=weights_arr[low_mask]))
        new_high = float(np.average(centers_arr[~low_mask], weights=weights_arr[~low_mask]))
        if math.isclose(new_low, low, rel_tol=1e-9) and math.isclose(
            new_high, high, rel_tol=1e-9
        ):
            break
        low, high = new_low, new_high

    total = low_weight + high_weight
    # Collapse to one phase when the clusters barely differ: either relative
    # to the overall mean, or within ~2 bins (histogram quantization, not
    # genuine bimodality).
    bin_width = float(histogram.edges[1] - histogram.edges[0])
    if high - low < max(0.1 * total_mean, 2.2 * bin_width):
        return [(1.0, total_mean)]
    return [(low_weight / total, low), (high_weight / total, high)]


class PhaseAwareQueueModel(QueueModel):
    """Queue model with per-phase utilization (extension, see module doc).

    Args:
        calibration: idle-switch service estimate used to invert each
            phase's mean latency to a utilization.
        interpolate: as in :class:`QueueModel`.
    """

    name = "PhaseAwareQueue"

    def __init__(self, calibration: ServiceEstimate, interpolate: bool = True) -> None:
        super().__init__(interpolate=interpolate)
        self.calibration = calibration

    def _phases(self, signature: ProbeSignature) -> List[Tuple[float, float]]:
        """``signature``'s phases as ``(mass fraction, utilization)`` pairs."""
        phases = split_phases(signature.histogram)
        # Bin centers quantize the phase means; rescale so their weighted
        # mean equals the signature's exact sample mean (for a unimodal
        # co-runner this makes the model coincide with the plain queue
        # model exactly).
        weighted = sum(weight * mean for weight, mean in phases)
        if weighted > 0:
            correction = signature.mean / weighted
            phases = [(weight, mean * correction) for weight, mean in phases]
        rate, variance = self.calibration.rate, self.calibration.variance
        return [
            (weight, utilization_from_sojourn(mean, rate, variance))
            for weight, mean in phases
        ]

    def predict_batch(
        self, pairs: Sequence[Tuple[str, ProbeSignature]]
    ) -> List[float]:
        table = self.table
        seen: Dict[int, List[Tuple[float, float]]] = {}
        predictions = []
        for app, signature in pairs:
            ys = self._ys[table.app_row(app)]
            phases = seen.get(id(signature))
            if phases is None:
                phases = self._phases(signature)
                seen[id(signature)] = phases
            prediction = 0.0
            for weight, utilization in phases:
                if self.interpolate:
                    value = float(np.interp(utilization, self._xs, ys))
                else:
                    value = float(ys[self._nearest_column(utilization)])
                prediction += weight * value
            predictions.append(prediction)
        return predictions
