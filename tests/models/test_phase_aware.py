"""Tests for the phase-aware queue model extension."""

import numpy as np
import pytest

from repro.core.experiments import CompressionObservation
from repro.core.experiments.impact import ImpactResult
from repro.core.measurement import LatencyHistogram, ProbeSignature, paper_bin_edges
from repro.core.models import (
    PhaseAwareQueueModel,
    PredictionEngine,
    QueueModel,
    split_phases,
)
from repro.queueing import ServiceEstimate, sojourn_from_utilization
from repro.workloads import CompressionConfig

CAL = ServiceEstimate(mean=1e-6, variance=1e-13, minimum=0.8e-6, sample_count=200)


def _samples_at_utilization(rho, n, rng):
    mean = sojourn_from_utilization(rho, CAL.rate, CAL.variance)
    return rng.normal(mean, mean * 0.02, n).clip(1e-9)


def _signature(samples):
    return ProbeSignature.from_samples(samples, CAL)


def _observation(p, rho, seed):
    rng = np.random.default_rng(seed)
    config = CompressionConfig(partners=p, messages=1, sleep_cycles=2.5e5)
    return CompressionObservation(
        config=config,
        impact=ImpactResult(
            signature=_signature(_samples_at_utilization(rho, 400, rng)),
            true_utilization=rho,
            sim_time=0.01,
        ),
    )


@pytest.fixture()
def fitted_pair():
    observations = [
        _observation(1, 0.1, seed=1),
        _observation(4, 0.5, seed=2),
        _observation(7, 0.9, seed=3),
    ]
    labels = [obs.label for obs in observations]
    # A convex degradation curve (like FFTW's in Fig. 7).
    degradations = {"app": {labels[0]: 2.0, labels[1]: 30.0, labels[2]: 200.0}}
    plain = QueueModel().fit(observations, degradations)
    aware = PhaseAwareQueueModel(CAL).fit(observations, degradations)
    return plain, aware


# ----------------------------------------------------------------------
# split_phases
# ----------------------------------------------------------------------
def test_split_unimodal_returns_single_phase():
    rng = np.random.default_rng(0)
    hist = LatencyHistogram.from_values(
        rng.normal(2e-6, 0.1e-6, 5000).clip(1e-9), paper_bin_edges()
    )
    phases = split_phases(hist)
    assert len(phases) == 1
    weight, mean = phases[0]
    assert weight == pytest.approx(1.0)
    assert mean == pytest.approx(2e-6, rel=0.15)


def test_split_bimodal_finds_both_modes():
    rng = np.random.default_rng(1)
    low = rng.normal(1e-6, 0.1e-6, 7000)
    high = rng.normal(8e-6, 0.3e-6, 3000)
    hist = LatencyHistogram.from_values(
        np.concatenate([low, high]).clip(1e-9), paper_bin_edges()
    )
    phases = split_phases(hist)
    assert len(phases) == 2
    (w_low, m_low), (w_high, m_high) = phases
    assert w_low == pytest.approx(0.7, abs=0.05)
    assert w_high == pytest.approx(0.3, abs=0.05)
    assert m_low == pytest.approx(1e-6, rel=0.3)
    assert m_high == pytest.approx(8e-6, rel=0.15)


def test_split_weights_sum_to_one():
    rng = np.random.default_rng(2)
    hist = LatencyHistogram.from_values(
        rng.exponential(3e-6, 2000).clip(1e-9), paper_bin_edges()
    )
    phases = split_phases(hist)
    assert sum(weight for weight, _mean in phases) == pytest.approx(1.0)


def test_split_handles_overflow_mass():
    hist = LatencyHistogram.from_values([1e-6] * 50 + [50e-6] * 50, paper_bin_edges())
    phases = split_phases(hist)
    assert len(phases) == 2
    assert phases[1][1] > 12e-6  # slow phase sits beyond the last edge


# ----------------------------------------------------------------------
# PhaseAwareQueueModel
# ----------------------------------------------------------------------
def test_reduces_to_queue_model_for_steady_corunner(fitted_pair):
    plain, aware = fitted_pair
    rng = np.random.default_rng(5)
    steady = _signature(_samples_at_utilization(0.5, 500, rng))
    assert aware.predict("app", steady) == pytest.approx(
        plain.predict("app", steady), rel=0.2
    )


def test_phasing_corunner_predicted_lower_than_mean_based(fitted_pair):
    """An AMG-like co-runner (mostly idle + busy bursts) must be predicted
    to hurt less than a constant co-runner with the same *mean* latency —
    the exact failure the paper reports for FFTW+AMG."""
    plain, aware = fitted_pair
    rng = np.random.default_rng(6)
    idle = _samples_at_utilization(0.05, 800, rng)
    busy = _samples_at_utilization(0.9, 200, rng)
    phasing = _signature(np.concatenate([idle, busy]))

    aware_prediction = aware.predict("app", phasing)
    plain_prediction = plain.predict("app", phasing)
    assert aware_prediction < plain_prediction

    # And the phase-aware value approximates the true weighted combination.
    expected = 0.8 * 2.0 + 0.2 * 200.0  # ~41.6 using the fitted curve ends
    assert aware_prediction == pytest.approx(expected, rel=0.5)


def test_batch_predicts_phases_like_the_scalar_path(fitted_pair):
    """A bimodal co-runner: the batch path and the prediction engine must
    split it into phases too, not fall back to the plain queue model."""
    plain, aware = fitted_pair
    rng = np.random.default_rng(8)
    bimodal = _signature(
        np.concatenate(
            [
                _samples_at_utilization(0.05, 500, rng),
                _samples_at_utilization(0.85, 500, rng),
            ]
        )
    )
    scalar = aware.predict("app", bimodal)
    assert scalar != pytest.approx(plain.predict("app", bimodal), rel=0.05)
    assert aware.predict_batch([("app", bimodal)] * 3) == [scalar] * 3
    engine = PredictionEngine(
        aware.table.observations,
        aware.table.degradations,
        {"bimodal": bimodal},
        models=[PhaseAwareQueueModel(CAL)],
    )
    [batched] = engine.predict_batch([("app", "bimodal", "PhaseAwareQueue")])
    assert batched.predicted == scalar


def test_nearest_mode_supported(fitted_pair):
    _plain, _aware = fitted_pair
    observations = _aware.table.observations
    degradations = {"app": _aware.table.degradations["app"]}
    nearest = PhaseAwareQueueModel(CAL, interpolate=False).fit(observations, degradations)
    rng = np.random.default_rng(7)
    steady = _signature(_samples_at_utilization(0.48, 400, rng))
    assert nearest.predict("app", steady) in {2.0, 30.0, 200.0}
