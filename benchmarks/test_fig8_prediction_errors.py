"""Fig. 8 — |measured − predicted| % for every pairing × every model.

Paper claims reproduced here:
* all four models produce predictions for all ordered pairings;
* the queue model's errors are competitive with (typically better than)
  the look-up-table models on most pairings.
"""

import numpy as np
from conftest import save_artifact

from repro.analysis.report import fig8


def test_fig8_prediction_errors(benchmark, pipeline, artifact_dir):
    errors, text = benchmark.pedantic(fig8, args=(pipeline,), rounds=1, iterations=1)
    save_artifact(artifact_dir, "fig8_prediction_errors.txt", text)

    assert set(errors) == {"AverageLT", "AverageStDevLT", "PDFLT", "Queue"}
    pair_count = len(pipeline.app_names) ** 2
    for model, table in errors.items():
        assert len(table) == pair_count, f"{model} must cover all pairings"
        assert all(np.isfinite(v) and v >= 0 for v in table.values())

    # The queue model should not be the *worst* model on median error.
    medians = {
        model: float(np.median(list(table.values()))) for model, table in errors.items()
    }
    worst = max(medians, key=medians.get)
    assert worst != "Queue", f"queue model unexpectedly worst: {medians}"
