"""EXPERIMENTS.md, Fig. 3: one test per claim row, at the printed precision."""

import math

import pytest

from repro.analysis.report import fig3


@pytest.fixture(scope="module")
def signatures(paper_pipeline):
    return fig3(paper_pipeline)[0]


def share(signature, low_us, high_us=math.inf):
    """Probe mass in the bins whose centres lie in (low_us, high_us) µs.

    Bin centres sidestep the stored edges' rounding (the 2.5 µs edge is
    2.4999…e-6); an open upper end counts the overflow bin too.
    """
    histogram = signature.histogram
    centres = histogram.centers * 1e6
    mass = histogram.fractions[(centres > low_us) & (centres < high_us)].sum()
    if high_us == math.inf:
        mass += histogram.overflow_fraction
    return float(mass)


def mode_bin_us(signature):
    histogram = signature.histogram
    index = histogram.mode_bin()
    return (
        f"{histogram.edges[index] * 1e6:.1f}–{histogram.edges[index + 1] * 1e6:.1f}"
    )


def test_idle_switch_fast_mode_and_thin_slow_tail(signatures):
    idle = signatures["idle"]
    assert f"{idle.mean * 1e6:.2f}" == "1.01"
    assert mode_bin_us(idle) == "0.5–1.0"
    assert f"{share(idle, 2.5) * 100:.1f}" == "0.3"
    # p99 falls in the 2.0–2.5 µs bin.
    assert share(idle, 2.0) > 0.01 > share(idle, 2.5)


def test_fftw_shifts_probes_past_2_5us(signatures, paper_pipeline):
    fftw = signatures["fftw"]
    assert f"{fftw.mean * 1e6:.2f}" == "3.27"
    assert f"{share(fftw, 2.5) * 100:.0f}" == "68"
    assert "fftw (mean 3.27µs, fraction>2.5µs 68%)" in fig3(paper_pipeline)[1]


def test_milc_moves_mass_not_the_mode_and_lulesh_shifts_little(
    signatures, paper_pipeline
):
    milc, lulesh = signatures["milc"], signatures["lulesh"]
    assert f"{milc.mean * 1e6:.2f}" == "2.53"
    assert f"{share(milc, 2.5) * 100:.0f}" == "21"
    assert "milc (mean 2.53µs, fraction>2.5µs 21%)" in fig3(paper_pipeline)[1]
    assert f"{lulesh.mean * 1e6:.2f}" == "1.17"
    assert mode_bin_us(milc) == mode_bin_us(lulesh) == mode_bin_us(signatures["idle"])


def test_mcb_fattens_the_shoulder_not_the_mode(signatures):
    idle, mcb = signatures["idle"], signatures["mcb"]
    assert f"{mcb.mean * 1e6:.2f}" == "1.03"
    assert mode_bin_us(mcb) == mode_bin_us(idle)
    assert f"{share(idle, 1.5, 2.5) * 100:.1f}" == "2.1"
    assert f"{share(mcb, 1.5, 2.5) * 100:.1f}" == "4.1"
