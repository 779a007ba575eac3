"""Fixed-bin latency histograms (the paper's Fig. 3 representation).

All histograms in one experiment share the same bin edges so that the PDFLT
model can compare distributions bin-by-bin.  The paper plots packet transit
times from 1 µs to 10 µs; the default edges cover 0–12 µs with an overflow
bin for slower packets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import ExperimentError
from ...units import US

__all__ = ["LatencyHistogram", "paper_bin_edges"]

#: Relative slack under which an edge equals a threshold: far above the few
#: ulps ``np.linspace`` may be off, far below any bin width.
_EDGE_RTOL = 1e-12


def paper_bin_edges(
    low: float = 0.0, high: float = 12.0 * US, bins: int = 24
) -> np.ndarray:
    """Default shared bin edges (an overflow bin is added automatically)."""
    if bins < 1 or high <= low:
        raise ExperimentError(f"invalid binning: [{low}, {high}] x {bins}")
    return np.linspace(low, high, bins + 1)


class LatencyHistogram:
    """A normalized histogram over fixed edges plus an overflow bin."""

    __slots__ = ("edges", "counts", "overflow", "total")

    def __init__(self, edges: np.ndarray, counts: np.ndarray, overflow: int) -> None:
        self.edges = np.asarray(edges, dtype=float)
        self.counts = np.asarray(counts, dtype=float)
        self.overflow = int(overflow)
        self.total = int(self.counts.sum() + self.overflow)

    @classmethod
    def from_values(
        cls, values: Sequence[float], edges: np.ndarray | None = None
    ) -> "LatencyHistogram":
        """Bin ``values``; anything beyond the last edge lands in overflow."""
        if edges is None:
            edges = paper_bin_edges()
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            raise ExperimentError("cannot build a histogram from zero samples")
        counts, _ = np.histogram(data, bins=edges)
        # np.histogram's last bin is closed on both sides, so a sample equal
        # to the final edge is already in counts; overflow must be strictly
        # beyond the edge or such samples would be counted twice, inflating
        # total and under-normalizing every fraction the PDFLT model uses.
        overflow = int((data > edges[-1]).sum())
        return cls(edges, counts, overflow)

    # ------------------------------------------------------------------
    @property
    def bin_count(self) -> int:
        return len(self.counts)

    @property
    def fractions(self) -> np.ndarray:
        """Per-bin probability mass (excluding overflow from the vector but
        included in the normalization)."""
        if self.total == 0:
            return np.zeros_like(self.counts)
        return self.counts / self.total

    @property
    def overflow_fraction(self) -> float:
        """Probability mass beyond the last edge (very slow packets)."""
        return self.overflow / self.total if self.total else 0.0

    @property
    def centers(self) -> np.ndarray:
        """Bin midpoints."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def mode_bin(self) -> int:
        """Index of the most populated bin."""
        return int(np.argmax(self.counts))

    def fraction_above(self, threshold: float) -> float:
        """Probability mass at or above ``threshold`` (bin-resolution).

        A bin counts when its left edge is at or above ``threshold``, or
        equal to it up to float rounding: :func:`paper_bin_edges` stores
        the 2.5 µs edge as 2.4999…e-6, and that bin starts at 2.5 µs.
        """
        left = self.edges[:-1]
        mask = (left >= threshold) | np.isclose(
            left, threshold, rtol=_EDGE_RTOL, atol=0.0
        )
        return float(self.fractions[mask].sum()) + self.overflow_fraction

    def overlap(self, other: "LatencyHistogram") -> float:
        """The PDFLT affinity: Σᵢ pᵢ·qᵢ over shared bins (paper's ∫f_B·f_Ci).

        Raises:
            ExperimentError: if bin edges differ.
        """
        if self.edges.shape != other.edges.shape or not np.allclose(self.edges, other.edges):
            raise ExperimentError("histograms must share bin edges to be compared")
        return float(np.dot(self.fractions, other.fractions))

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        return cls(
            np.asarray(data["edges"]), np.asarray(data["counts"]), data["overflow"]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<LatencyHistogram n={self.total} bins={self.bin_count}>"
