"""EXPERIMENTS.md, Fig. 8: one test per claim row, at the printed precision."""

import pytest

from repro.analysis.report import fig8

LOOKUP_MODELS = ("AverageLT", "AverageStDevLT", "PDFLT")


@pytest.fixture(scope="module")
def errors(paper_pipeline):
    return fig8(paper_pipeline)[0]


def test_lookup_models_are_good_on_lulesh_and_amg(errors, paper_pipeline):
    worst = {
        model: max(
            errors[model][(app, other)]
            for app in ("lulesh", "amg")
            for other in paper_pipeline.app_names
        )
        for model in LOOKUP_MODELS
    }
    assert f"{worst['AverageLT']:.1f}" == f"{worst['AverageStDevLT']:.1f}" == "1.4"
    assert f"{worst['PDFLT']:.1f}" == "2.7"


def test_largest_lookup_errors_sit_on_fft_rows(errors):
    for model in LOOKUP_MODELS:
        app, _ = max(errors[model], key=errors[model].get)
        assert app in ("fftw", "vpfft"), model
    assert max(errors["PDFLT"], key=errors["PDFLT"].get) == ("fftw", "fftw")
    assert f"{errors['PDFLT'][('fftw', 'fftw')]:.1f}" == "71.5"


def test_queue_errors_fall_into_the_papers_three_categories(errors, paper_pipeline):
    engine = paper_pipeline.engine()

    def queue(app, other):
        (prediction,) = [
            p for p in engine.predict_pair(app, other) if p.model == "Queue"
        ]
        return paper_pipeline.pair_slowdown(app, other), prediction.predicted

    # (i) predicts about nothing where the pair measurably slows down.
    measured, predicted = queue("fftw", "amg")
    assert (f"{measured:.1f}", f"{predicted:.1f}") == ("4.9", "1.3")
    measured, predicted = queue("vpfft", "amg")
    assert (f"{measured:.1f}", f"{predicted:.1f}") == ("2.4", "-0.3")
    # (ii) MILC pairs are a few points off.
    milc = [
        error for pair, error in errors["Queue"].items() if "milc" in pair
    ]
    assert f"{min(milc):.1f}" == "0.1" and f"{max(milc):.1f}" == "14.9"
    # (iii) a notable prediction where the measured slowdown is smaller.
    measured, predicted = queue("fftw", "milc")
    assert (f"{measured:.1f}", f"{predicted:.0f}") == ("16.5", "30")
