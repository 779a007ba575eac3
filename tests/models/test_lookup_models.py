"""Tests for the three look-up-table models using synthetic signatures."""

import numpy as np
import pytest

from repro.core.experiments import CompressionObservation, ImpactExperiment
from repro.core.experiments.impact import ImpactResult
from repro.core.measurement import ProbeSignature
from repro.core.models import AverageLT, AverageStDevLT, PDFLT
from repro.errors import ModelError
from repro.units import US
from repro.workloads import CompressionConfig


def _signature(mean_us, spread_us=0.3, n=400, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.normal(mean_us * US, spread_us * US, n).clip(0.05 * US)
    return ProbeSignature.from_samples(samples)


def _observation(label_p, mean_us, spread_us=0.3, seed=0):
    config = CompressionConfig(partners=label_p, messages=1, sleep_cycles=2.5e5)
    impact = ImpactResult(
        signature=_signature(mean_us, spread_us, seed=seed),
        true_utilization=0.0,
        sim_time=0.01,
    )
    return CompressionObservation(config=config, impact=impact)


@pytest.fixture()
def observations():
    # Three configs with well-separated mean latencies: 1µs, 3µs, 6µs.
    return [
        _observation(1, 1.0, seed=1),
        _observation(4, 3.0, seed=2),
        _observation(7, 6.0, seed=3),
    ]


@pytest.fixture()
def degradations(observations):
    labels = [obs.label for obs in observations]
    return {
        "appx": {labels[0]: 5.0, labels[1]: 20.0, labels[2]: 60.0},
        "appy": {labels[0]: 1.0, labels[1]: 2.0, labels[2]: 4.0},
    }


def test_average_lt_picks_closest_mean(observations, degradations):
    model = AverageLT().fit(observations, degradations)
    assert model.predict("appx", _signature(1.1, seed=9)) == 5.0
    assert model.predict("appx", _signature(2.8, seed=9)) == 20.0
    assert model.predict("appx", _signature(9.0, seed=9)) == 60.0
    assert model.predict("appy", _signature(5.5, seed=9)) == 4.0


def test_avgstddev_lt_uses_interval_overlap(observations, degradations):
    model = AverageStDevLT().fit(observations, degradations)
    # A wide signature centred at 3µs overlaps the middle config most.
    assert model.predict("appx", _signature(3.0, spread_us=0.5, seed=9)) == 20.0


def test_avgstddev_lt_breaks_overlap_ties_by_closest_mean():
    # Both wide catalog intervals contain the co-runner's narrow one, so
    # the overlap ties; the lower label has the farther mean and must lose.
    far = _observation(1, 3.0, spread_us=1.5, seed=1)
    near = _observation(4, 4.0, spread_us=1.5, seed=2)
    assert far.label < near.label
    target = _signature(3.8, spread_us=0.1, seed=9)
    low, high = target.interval
    for obs in (far, near):
        obs_low, obs_high = obs.impact.signature.interval
        assert obs_low < low and high < obs_high
    model = AverageStDevLT().fit(
        [far, near], {"appx": {far.label: 5.0, near.label: 20.0}}
    )
    assert model.predict("appx", target) == 20.0
    assert model.predict_batch([("appx", target), ("appx", target)]) == [20.0, 20.0]


def test_avgstddev_lt_falls_back_when_no_overlap(observations, degradations):
    model = AverageStDevLT().fit(observations, degradations)
    # Far beyond every interval: falls back to closest mean (the 6µs config).
    assert model.predict("appx", _signature(50.0, spread_us=0.01, seed=9)) == 60.0


def test_pdf_lt_matches_distribution(observations, degradations):
    model = PDFLT().fit(observations, degradations)
    assert model.predict("appx", _signature(6.0, seed=9)) == 60.0
    assert model.predict("appx", _signature(1.0, seed=9)) == 5.0


def test_pdf_lt_falls_back_when_mass_out_of_range(observations, degradations):
    model = PDFLT().fit(observations, degradations)
    # All mass beyond the shared bins -> zero affinity everywhere -> fallback.
    assert model.predict("appx", _signature(500.0, spread_us=0.01, seed=9)) == 60.0


def test_unfitted_model_raises(observations):
    with pytest.raises(ModelError, match="not been fitted"):
        AverageLT().predict("appx", _signature(1.0))


def test_fit_validates_missing_degradations(observations):
    with pytest.raises(ModelError, match="lacks degradation"):
        AverageLT().fit(observations, {"appx": {observations[0].label: 1.0}})


def test_fit_rejects_empty_observations():
    with pytest.raises(ModelError, match="empty"):
        AverageLT().fit([], {})


def test_fit_rejects_duplicate_labels(observations, degradations):
    with pytest.raises(ModelError, match="duplicate"):
        AverageLT().fit([observations[0], observations[0]], degradations)


def test_unknown_app_raises(observations, degradations):
    model = AverageLT().fit(observations, degradations)
    with pytest.raises(ModelError):
        model.predict("nosuchapp", _signature(1.0, seed=9))
