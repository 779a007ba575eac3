"""Tests for LatencyHistogram."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.measurement import LatencyHistogram, paper_bin_edges
from repro.errors import ExperimentError
from repro.units import US


def test_paper_bin_edges_shape():
    edges = paper_bin_edges()
    assert len(edges) == 25
    assert edges[0] == 0.0
    assert edges[-1] == pytest.approx(12 * US)


def test_paper_bin_edges_validation():
    with pytest.raises(ExperimentError):
        paper_bin_edges(bins=0)
    with pytest.raises(ExperimentError):
        paper_bin_edges(low=5.0, high=1.0)


def test_from_values_counts_and_overflow():
    edges = np.array([0.0, 1.0, 2.0])
    hist = LatencyHistogram.from_values([0.5, 0.6, 1.5, 5.0, 7.0], edges)
    np.testing.assert_array_equal(hist.counts, [2, 1])
    assert hist.overflow == 2
    assert hist.total == 5


def test_sample_on_last_edge_is_not_double_counted():
    # Regression: np.histogram puts a sample exactly equal to the last edge
    # in the final (closed) bin, and a >= overflow test counted it again —
    # [1e-6, 12e-6] against the paper edges reported total == 3.
    edges = paper_bin_edges()  # last edge is exactly 12 µs
    hist = LatencyHistogram.from_values([1e-6, 12e-6], edges)
    assert hist.total == 2
    assert hist.overflow == 0
    assert hist.counts[-1] == 1  # the edge sample lives in the last bin
    assert hist.fractions.sum() + hist.overflow_fraction == pytest.approx(1.0)


def test_overflow_is_strictly_beyond_last_edge():
    edges = np.array([0.0, 1.0, 2.0])
    hist = LatencyHistogram.from_values([0.5, 2.0, 2.0000001, 9.0], edges)
    assert hist.overflow == 2
    assert hist.total == 4


def test_fractions_sum_to_one_including_overflow():
    edges = np.array([0.0, 1.0, 2.0])
    hist = LatencyHistogram.from_values([0.5, 1.5, 9.0], edges)
    assert hist.fractions.sum() + hist.overflow_fraction == pytest.approx(1.0)


def test_empty_values_rejected():
    with pytest.raises(ExperimentError):
        LatencyHistogram.from_values([], np.array([0.0, 1.0]))


def test_mode_bin_and_fraction_above():
    edges = np.array([0.0, 1.0, 2.0, 3.0])
    hist = LatencyHistogram.from_values([0.1, 1.1, 1.2, 1.3, 2.5], edges)
    assert hist.mode_bin() == 1
    assert hist.fraction_above(2.0) == pytest.approx(0.2)
    assert hist.fraction_above(1.0) == pytest.approx(0.8)


def test_fraction_above_counts_an_edge_rounded_below_the_threshold():
    edges = paper_bin_edges()
    assert edges[5] < 2.5e-6  # linspace stores the 2.5 µs edge as 2.4999…e-6
    hist = LatencyHistogram.from_values([2.75 * US] * 4, edges)
    assert hist.fractions[5] == 1.0
    assert hist.fraction_above(2.5e-6) == 1.0
    assert hist.fraction_above(3.0e-6) == 0.0


def test_overlap_requires_same_edges():
    a = LatencyHistogram.from_values([0.5], np.array([0.0, 1.0, 2.0]))
    b = LatencyHistogram.from_values([0.5], np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ExperimentError):
        a.overlap(b)


def test_overlap_is_high_for_identical_distributions():
    edges = paper_bin_edges()
    rng = np.random.default_rng(0)
    samples = rng.normal(3e-6, 0.5e-6, 2000).clip(1e-7)
    a = LatencyHistogram.from_values(samples[:1000], edges)
    b = LatencyHistogram.from_values(samples[1000:], edges)
    far = LatencyHistogram.from_values(rng.normal(9e-6, 0.5e-6, 1000).clip(1e-7), edges)
    assert a.overlap(b) > 3 * a.overlap(far)


def test_overlap_symmetry():
    edges = paper_bin_edges()
    a = LatencyHistogram.from_values([1e-6, 2e-6, 3e-6], edges)
    b = LatencyHistogram.from_values([2e-6, 4e-6], edges)
    assert a.overlap(b) == pytest.approx(b.overlap(a))


def test_serialization_roundtrip():
    hist = LatencyHistogram.from_values([1e-6, 5e-6, 20e-6], paper_bin_edges())
    restored = LatencyHistogram.from_dict(hist.to_dict())
    np.testing.assert_array_equal(restored.counts, hist.counts)
    assert restored.overflow == hist.overflow
    assert restored.total == hist.total


def test_centers():
    hist = LatencyHistogram.from_values([0.5], np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(hist.centers, [0.5, 1.5])


@given(st.lists(st.floats(min_value=1e-8, max_value=1e-4), min_size=1, max_size=300))
def test_property_total_mass_conserved(samples):
    hist = LatencyHistogram.from_values(samples, paper_bin_edges())
    assert hist.total == len(samples)
    assert hist.fractions.sum() + hist.overflow_fraction == pytest.approx(1.0)
