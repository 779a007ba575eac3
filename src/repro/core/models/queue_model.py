"""The queue-theoretic model (paper §IV-B, §V-B).

Impact experiments on a workload B yield its switch-queue utilization U_B
(the P–K inversion of its mean probe latency).  Compression experiments on
application A yield a mapping p_A : utilization → % degradation (Fig. 7).
The prediction for A co-running with B is simply p_A(U_B).

The paper selects "the configurations of CompressionB that also utilize
U_B% of the switch queue"; we support both that nearest-configuration rule
and piecewise-linear interpolation between the two bracketing
configurations (the default, which removes the catalog's quantization
noise).

The per-app degradation curves are derived once, at fit time: the catalog's
utilization vector is sorted (stably, so equal utilizations keep canonical
label order) and the apps×configs degradation matrix is permuted to match.
Fitting also validates the calibration up front — an uncalibrated catalog
(NaN utilization) raises a :class:`~repro.errors.ModelError` naming the
offending config immediately, instead of blowing up mid-campaign on the
first ``predict()`` call.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...core.measurement import ProbeSignature
from ...errors import ModelError
from .base import SlowdownModel

__all__ = ["QueueModel"]


class QueueModel(SlowdownModel):
    """Predict via the utilization coordinate.

    Args:
        interpolate: if True (default) linearly interpolate the degradation
            curve between the two bracketing configurations; if False use the
            single nearest-utilization configuration, exactly as written in
            the paper.
    """

    name = "Queue"

    def __init__(self, interpolate: bool = True) -> None:
        super().__init__()
        self.interpolate = interpolate

    def _prepare(self) -> None:
        """Validate calibration and build the utilization-sorted curves."""
        table = self.table
        missing = np.isnan(table.utilizations)
        if missing.any():
            label = table.labels[int(np.argmax(missing))]
            raise ModelError(
                f"queue model needs calibrated signatures, but utilization is "
                f"NaN for config {label!r}; run the impact experiments with a "
                "ServiceEstimate"
            )
        order = np.argsort(table.utilizations, kind="stable")
        self._xs = table.utilizations[order]
        self._ys = table.deg_matrix[:, order]

    def _target_of(self, other_signature: ProbeSignature) -> float:
        target = other_signature.utilization
        if math.isnan(target):
            raise ModelError("co-runner signature lacks a utilization estimate")
        return target

    def _nearest_column(self, target: float) -> int:
        """Nearest-utilization column of the sorted curve (paper rule).

        Equidistant targets resolve to the lower-utilization config (and,
        within equal utilizations, the lower label) — the first match in
        the canonically sorted curve.
        """
        return int(np.argmin(np.abs(self._xs - target)))

    def predict_batch(
        self, pairs: Sequence[Tuple[str, ProbeSignature]]
    ) -> List[float]:
        table = self.table
        if not pairs:
            return []
        rows = np.empty(len(pairs), dtype=np.intp)
        targets = np.empty(len(pairs), dtype=float)
        seen: Dict[int, float] = {}
        for index, (app, signature) in enumerate(pairs):
            rows[index] = table.app_row(app)
            target = seen.get(id(signature))
            if target is None:
                target = self._target_of(signature)
                seen[id(signature)] = target
            targets[index] = target
        out = np.empty(len(pairs), dtype=float)
        if not self.interpolate:
            cols = np.empty(len(pairs), dtype=np.intp)
            matched = {target: self._nearest_column(target) for target in seen.values()}
            for index in range(len(pairs)):
                cols[index] = matched[targets[index]]
            out[:] = self._ys[rows, cols]
        else:
            by_row: Dict[int, List[int]] = {}
            for index, row in enumerate(rows):
                by_row.setdefault(int(row), []).append(index)
            # np.interp clamps outside the measured range, which is what we
            # want: a co-runner lighter than the lightest config predicts
            # that config's degradation rather than extrapolating to
            # negative slowdowns.
            for row, indices in by_row.items():
                out[indices] = np.interp(targets[indices], self._xs, self._ys[row])
        return [float(value) for value in out]
