"""Tests for the fabric-scenario prediction-error comparison.

The campaign shape is the lossy-fabric smoke's: light FFTW and MCB, two
catalog configs, the single switch against a 2x2x2 leaf-spine fabric
whose ``leaf*->spine0`` links drop 2% of packets.
"""

import json

import pytest

from repro.analysis import fabric_comparison, write_fabric_report
from repro.cluster import leaf_spine_config, small_test_config
from repro.config import LinkFaultConfig
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.errors import ExperimentError
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig

LOSSY = (LinkFaultConfig(link="leaf*->spine0", drop_probability=0.02),)


def _campaign(machine_config):
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick", seed=0,
            impact_duration=0.01, signature_duration=0.01,
            calibration_duration=0.02, probe_interval=0.1 * MS,
        ),
        machine_config=machine_config,
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[CompressionConfig(1, 1, 2.5e6), CompressionConfig(2, 1, 2.5e5)],
    )
    pipeline.ensure_all(workers=1)
    return pipeline


@pytest.fixture(scope="module")
def baseline():
    return _campaign(small_test_config(seed=0))


@pytest.fixture(scope="module")
def comparison(baseline):
    fabric = _campaign(
        leaf_spine_config(seed=0, leaf_count=2, nodes_per_leaf=2,
                          spine_count=2, faults=LOSSY)
    )
    return fabric_comparison(baseline, fabric)


def test_every_model_covers_every_pair_on_both_sides(comparison):
    assert comparison["models"]
    for side in ("baseline", "fabric"):
        for model in comparison["models"]:
            assert len(comparison[side][model]["per_pair"]) == 2 ** 2


def test_delta_is_fabric_minus_baseline(comparison):
    for model in comparison["models"]:
        base = comparison["baseline"][model]
        fab = comparison["fabric"][model]
        assert comparison["delta"][model] == {
            "median": fab["summary"].median - base["summary"].median,
            "mean": fab["summary"].mean - base["summary"].mean,
            "within_10pct": fab["within_10pct"] - base["within_10pct"],
        }


def test_report_round_trips_per_pair_errors(comparison, tmp_path):
    report = json.loads(
        write_fabric_report(comparison, tmp_path / "fabric_report.json").read_text()
    )
    assert report["models"] == comparison["models"]
    for side in ("baseline", "fabric"):
        for model in comparison["models"]:
            expected = comparison[side][model]["per_pair"]
            assert report[side][model]["per_pair"] == expected


def test_single_switch_fabric_is_refused(baseline):
    with pytest.raises(ExperimentError, match="single-switch"):
        fabric_comparison(baseline, baseline)
