"""Paper-artifact assembly: every figure and table from one pipeline.

This module alone decides which pipeline products make each artifact of
the evaluation and how it is rendered.  One function per artifact
(:func:`fig3`, :func:`fig6`, :func:`fig7`, :func:`table1`, :func:`fig8`,
:func:`fig9`) returns ``(data, text)``; :func:`report` joins Table I and
Figs. 6, 7 and 9.  ``repro <name>`` prints the text through
:data:`FIGURES`, the figure benchmarks time the functions and assert on the
data, and ``tests/claims/`` checks EXPERIMENTS.md against both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..core.measurement import ProbeSignature
from .degradation import fit_degradation_trend, sensitivity_ranking
from .errors import ErrorSummary, error_summaries
from .tables import (
    render_fig6,
    render_fig7_series,
    render_fig8,
    render_fig9,
    render_histogram,
    render_table1,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiments import CompressionObservation, ReproductionPipeline

Pairs = Dict[Tuple[str, str], float]
Curves = Dict[str, List[Tuple[float, float]]]

__all__ = [
    "FIGURES", "degradation_curves", "full_report", "report",
    "fig3", "fig6", "fig7", "table1", "fig8", "fig9",
]


def _histogram(signature: ProbeSignature, title: str) -> str:
    histogram = signature.histogram
    return render_histogram(histogram.fractions, histogram.edges, title=title)


def fig3(pipeline: "ReproductionPipeline") -> Tuple[Dict[str, ProbeSignature], str]:
    """Probe-latency histograms: the idle switch (key ``"idle"``), then
    each application's impact signature."""
    idle = pipeline.idle_signature()
    signatures = {"idle": idle}
    chunks = [_histogram(idle, f"No App (mean {idle.mean * 1e6:.2f}µs)")]
    for name in pipeline.app_names:
        signature = pipeline.app_impact(name).signature
        signatures[name] = signature
        slow = signature.histogram.fraction_above(2.5e-6)
        chunks.append(
            _histogram(
                signature,
                f"{name} (mean {signature.mean * 1e6:.2f}µs, "
                f"fraction>2.5µs {slow * 100:.0f}%)",
            )
        )
    return signatures, "\n\n".join(chunks)


def fig6(
    pipeline: "ReproductionPipeline",
) -> Tuple[List["CompressionObservation"], str]:
    """The CompressionB catalog's observations and their utilizations."""
    observations = pipeline.compression_signatures()
    return observations, render_fig6(
        {obs.label: obs.utilization for obs in observations}
    )


def degradation_curves(pipeline: "ReproductionPipeline") -> Curves:
    """Per-app (utilization, % degradation) points over the catalog."""
    utilizations = {
        obs.label: obs.utilization for obs in pipeline.compression_signatures()
    }
    table = pipeline.degradation_table()
    return {
        name: [(utilizations[label], value) for label, value in table[name].items()]
        for name in pipeline.app_names
    }


def fig7(pipeline: "ReproductionPipeline") -> Tuple[Curves, str]:
    """Degradation curves, then each app's linear trend, steepest first."""
    curves = degradation_curves(pipeline)
    lines = [
        render_fig7_series(curves),
        "",
        "linear trends (slope = % degradation per 100% utilization):",
    ]
    for name, slope in sensitivity_ranking(curves):
        fit = fit_degradation_trend(curves[name])
        lines.append(f"  {name:8s} slope={slope:8.1f}  r²={fit.r_squared:.2f}")
    return curves, "\n".join(lines)


def table1(pipeline: "ReproductionPipeline") -> Tuple[Pairs, str]:
    """Measured % slowdown of every ordered application pair."""
    pairs = pipeline.measured_pairs()
    return pairs, render_table1(pipeline.app_names, pairs)


def fig8(pipeline: "ReproductionPipeline") -> Tuple[Dict[str, Pairs], str]:
    """Every model's |measured − predicted| per pairing."""
    errors = pipeline.prediction_errors()
    return errors, render_fig8(errors, pipeline.app_names)


def fig9(
    pipeline: "ReproductionPipeline",
) -> Tuple[Dict[str, Tuple[ErrorSummary, float]], str]:
    """Per model: ``(ErrorSummary, share of errors <= 10%)``."""
    summaries = error_summaries(pipeline.prediction_errors())
    lines = [
        render_fig9({model: summary for model, (summary, _) in summaries.items()}),
        "",
    ]
    for model, (_, within) in summaries.items():
        lines.append(f"{model:16s} fraction of errors <= 10%: {within * 100:.0f}%")
    return summaries, "\n".join(lines)


def report(pipeline: "ReproductionPipeline") -> Tuple[Dict[str, object], str]:
    """Table I and Figs. 6, 7 and 9: each one's data by name, texts joined."""
    built = {build.__name__: build(pipeline) for build in (table1, fig6, fig7, fig9)}
    return (
        {name: data for name, (data, _) in built.items()},
        "\n\n".join(text for _, text in built.values()),
    )


def full_report(pipeline: "ReproductionPipeline") -> str:
    """The text of :func:`report`."""
    return report(pipeline)[1]


#: ``repro <name>`` → the function whose text it prints.
FIGURES: Dict[str, Callable[["ReproductionPipeline"], Tuple[object, str]]] = {
    build.__name__: build for build in (fig3, fig6, fig7, table1, fig8, fig9, report)
}
