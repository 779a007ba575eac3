"""Fabric-scenario prediction-error comparison.

The paper validated its four models on a single healthy switch.  The fabric
extension asks the next question: does the Queue model (and its siblings)
still predict pairwise slowdown when the bottleneck is a lossy or degraded
inter-switch link instead of a saturated port?  This module builds the
answer: both campaigns' per-model error distributions side by side, plus
the per-pair deltas, as structured data and as a rendered report.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Tuple

from .. import jsonfile
from ..config import scenario_tag
from ..errors import ExperimentError
from .errors import ErrorSummary, error_summaries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiments import ReproductionPipeline

__all__ = ["fabric_comparison", "render_fabric_comparison", "write_fabric_report"]


def _error_block(errors: Dict[str, Dict[Tuple[str, str], float]]) -> Dict[str, dict]:
    return {
        model: {
            "summary": summary,
            "within_10pct": within,
            "per_pair": {
                f"{app}+{other}": err for (app, other), err in errors[model].items()
            },
        }
        for model, (summary, within) in error_summaries(errors).items()
    }


def fabric_comparison(
    baseline: "ReproductionPipeline", fabric: "ReproductionPipeline"
) -> Dict[str, object]:
    """Compare per-model prediction errors of a fabric campaign to a baseline.

    Both pipelines must have run their campaigns (``ensure_all``).  The
    baseline is typically the paper's single-switch machine; the fabric one
    carries a leaf-spine topology and usually a fault scenario.  Returns a
    structure with each side's error summaries plus the per-model deltas of
    median and mean error (positive = the model got *worse* on the fabric).
    """
    fabric_tag = scenario_tag(fabric.machine_config)
    if fabric_tag is None:
        raise ExperimentError(
            "fabric pipeline runs the default single-switch machine; "
            "nothing to compare against the baseline"
        )
    base_errors = baseline.prediction_errors()
    fab_errors = fabric.prediction_errors()
    common = sorted(set(base_errors) & set(fab_errors))
    if not common:
        raise ExperimentError("the two campaigns share no prediction models")
    base_block = _error_block({m: base_errors[m] for m in common})
    fab_block = _error_block({m: fab_errors[m] for m in common})
    deltas = {}
    for model in common:
        base_summary: ErrorSummary = base_block[model]["summary"]
        fab_summary: ErrorSummary = fab_block[model]["summary"]
        deltas[model] = {
            "median": fab_summary.median - base_summary.median,
            "mean": fab_summary.mean - base_summary.mean,
            "within_10pct": fab_block[model]["within_10pct"]
            - base_block[model]["within_10pct"],
        }
    return {
        "baseline_tag": scenario_tag(baseline.machine_config) or "single-switch",
        "fabric_tag": fabric_tag,
        "models": common,
        "baseline": base_block,
        "fabric": fab_block,
        "delta": deltas,
    }


def render_fabric_comparison(comparison: Dict[str, object]) -> str:
    """Human-readable side-by-side of the two campaigns' model errors."""
    lines = [
        "Fabric scenario vs single-switch baseline — prediction error (%)",
        f"  baseline: {comparison['baseline_tag']}",
        f"  fabric:   {comparison['fabric_tag']}",
        "",
        f"{'model':16s} {'base med':>9s} {'fab med':>9s} {'Δmed':>7s} "
        f"{'base <=10%':>11s} {'fab <=10%':>10s}",
    ]
    for model in comparison["models"]:
        base = comparison["baseline"][model]
        fab = comparison["fabric"][model]
        delta = comparison["delta"][model]
        lines.append(
            f"{model:16s} {base['summary'].median:9.2f} "
            f"{fab['summary'].median:9.2f} {delta['median']:+7.2f} "
            f"{base['within_10pct'] * 100:10.0f}% {fab['within_10pct'] * 100:9.0f}%"
        )
    return "\n".join(lines)


def write_fabric_report(comparison: Dict[str, object], path: str | Path) -> Path:
    """Write the comparison as a JSON artifact (summaries flattened)."""

    def _flatten(block: Dict[str, dict]) -> Dict[str, dict]:
        out = {}
        for model, entry in block.items():
            summary: ErrorSummary = entry["summary"]
            out[model] = {
                "min": summary.minimum,
                "q1": summary.q1,
                "median": summary.median,
                "q3": summary.q3,
                "max": summary.maximum,
                "mean": summary.mean,
                "count": summary.count,
                "within_10pct": entry["within_10pct"],
                "per_pair": entry["per_pair"],
            }
        return out

    payload = {
        "baseline_tag": comparison["baseline_tag"],
        "fabric_tag": comparison["fabric_tag"],
        "models": comparison["models"],
        "baseline": _flatten(comparison["baseline"]),
        "fabric": _flatten(comparison["fabric"]),
        "delta": comparison["delta"],
    }
    return jsonfile.write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
