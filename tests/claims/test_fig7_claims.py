"""EXPERIMENTS.md, Fig. 7: one test per claim row, at the printed precision."""

import pytest

from repro.analysis import sensitivity_ranking
from repro.analysis.report import fig7


@pytest.fixture(scope="module")
def curves(paper_pipeline):
    return fig7(paper_pipeline)[0]


@pytest.fixture(scope="module")
def slopes(curves):
    return dict(sensitivity_ranking(curves))


def degradations(curves, app):
    return [value for _, value in sorted(curves[app])]


def test_fftw_is_steepest(curves, slopes):
    assert max(slopes, key=slopes.get) == "fftw"
    assert f"{slopes['fftw']:.0f}" == "167"
    assert f"{max(degradations(curves, 'fftw')):.1f}" == "151.0"


def test_vpfft_oscillates_in_the_top_group(curves, slopes, paper_pipeline):
    assert f"{slopes['vpfft']:.0f}" == "71"
    assert paper_pipeline.applications["vpfft"].jitter == 0.08
    values = degradations(curves, "vpfft")
    assert sum(b < a - 2.0 for a, b in zip(values, values[1:])) == 7
    assert slopes["milc"] > slopes["vpfft"] > slopes["lulesh"]


def test_milc_is_slightly_steeper_than_vpfft(slopes):
    assert f"{slopes['milc']:.0f}" == "95"
    assert slopes["fftw"] > slopes["milc"] > slopes["vpfft"]


def test_lulesh_degrades_mildly(curves, slopes):
    assert f"{slopes['lulesh']:.1f}" == "7.6"
    values = degradations(curves, "lulesh")
    assert f"{min(values):.2f}" == "0.06" and f"{max(values):.2f}" == "7.35"


@pytest.mark.parametrize("app, slope", [("mcb", "1.1"), ("amg", "1.4")])
def test_quiet_apps_stay_flat(curves, slopes, app, slope):
    assert f"{slopes[app]:.1f}" == slope
    assert max(degradations(curves, app)) <= 3.5


def test_sensitivity_ordering(slopes):
    def group(*apps):
        return [slopes[app] for app in apps]

    assert min(group("fftw")) > max(group("milc", "vpfft"))
    assert min(group("milc", "vpfft")) > max(group("lulesh"))
    assert min(group("lulesh")) > max(group("amg", "mcb"))
