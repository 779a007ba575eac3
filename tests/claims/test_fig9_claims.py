"""EXPERIMENTS.md, Fig. 9: one test per claim row, at the printed precision."""

import pytest

from repro.analysis.report import fig8, fig9


@pytest.fixture(scope="module")
def summaries(paper_pipeline):
    return fig9(paper_pipeline)[0]


def test_queue_is_best_and_mostly_within_10_percent(summaries):
    for stat in ("median", "mean", "maximum"):
        values = {
            model: getattr(summary, stat) for model, (summary, _) in summaries.items()
        }
        assert min(values, key=values.get) == "Queue", stat
    within = summaries["Queue"][1]
    assert within >= 0.75
    assert f"{within * 100:.0f}" == "86"


def test_all_queue_errors_but_one_below_20_percent(paper_pipeline):
    queue = sorted(fig8(paper_pipeline)[0]["Queue"].values())
    assert sum(error < 20.0 for error in queue) == 35 == len(queue) - 1
    assert f"{queue[-1]:.1f}" == "21.9"


def test_lookup_ordering_differs_from_the_paper(summaries):
    # The ❌ row: AverageLT edges AverageStDevLT, and PDFLT has the worst tail.
    average, stdev = summaries["AverageLT"][0], summaries["AverageStDevLT"][0]
    assert average.mean < stdev.mean
    assert (f"{average.mean:.1f}", f"{stdev.mean:.1f}") == ("3.3", "3.6")
    maxima = {model: summary.maximum for model, (summary, _) in summaries.items()}
    assert max(maxima, key=maxima.get) == "PDFLT"


def test_queue_mean_error_below_10_percent(summaries):
    assert f"{summaries['Queue'][0].mean:.1f}" == "3.2"
