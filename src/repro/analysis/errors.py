"""Prediction-error statistics (paper Figs. 8 and 9).

Fig. 8 plots |measured − predicted| per pairing per model; Fig. 9 summarizes
each model's 36 errors as quartile boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..errors import ExperimentError

__all__ = [
    "ErrorSummary",
    "absolute_errors",
    "summarize_errors",
    "fraction_within",
    "error_summaries",
]


@dataclass(frozen=True)
class ErrorSummary:
    """Five-number summary (plus mean) of a model's absolute errors."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    count: int

    @property
    def iqr(self) -> float:
        """Interquartile range (the Fig. 9 box height)."""
        return self.q3 - self.q1


def absolute_errors(
    measured: Mapping[Tuple[str, str], float],
    predicted: Mapping[Tuple[str, str], float],
) -> Dict[Tuple[str, str], float]:
    """|measured − predicted| for every pairing present in both mappings.

    Raises:
        ExperimentError: if ``predicted`` misses a measured pairing.
    """
    missing = set(measured) - set(predicted)
    if missing:
        raise ExperimentError(f"predictions missing for pairings: {sorted(missing)}")
    return {pair: abs(measured[pair] - predicted[pair]) for pair in measured}


def summarize_errors(errors: Sequence[float]) -> ErrorSummary:
    """The Fig. 9 box data for one model.

    Raises:
        ExperimentError: on an empty error list.
    """
    if len(errors) == 0:
        raise ExperimentError("cannot summarize zero errors")
    values = np.asarray(list(errors), dtype=float)
    if np.any(values < 0):
        raise ExperimentError("absolute errors cannot be negative")
    return ErrorSummary(
        minimum=float(values.min()),
        q1=float(np.percentile(values, 25)),
        median=float(np.percentile(values, 50)),
        q3=float(np.percentile(values, 75)),
        maximum=float(values.max()),
        mean=float(values.mean()),
        count=int(values.size),
    )


def fraction_within(errors: Sequence[float], threshold: float) -> float:
    """Share of errors at or below ``threshold`` (the paper quotes "more
    than 75% of its predictions have an error lower than 10%")."""
    if len(errors) == 0:
        raise ExperimentError("cannot compute a fraction of zero errors")
    values = np.asarray(list(errors), dtype=float)
    return float((values <= threshold).mean())


def error_summaries(
    errors: Mapping[str, Mapping[Tuple[str, str], float]]
) -> Dict[str, Tuple[ErrorSummary, float]]:
    """Each model's Fig. 9 numbers: its error summary and its share of
    errors at or below 10%."""
    summaries = {}
    for model, table in errors.items():
        values = list(table.values())
        summaries[model] = (summarize_errors(values), fraction_within(values, 10.0))
    return summaries
