"""The product grammar: one descriptor per key, malformed keys, no hidden runs.

``descriptor_for`` is the one place a raw key becomes an experiment.  The
digests below pin every descriptor it builds for every key of three
pipelines — a quick sim campaign on the small test machine, the paper
analytic campaign and a quick fluid campaign on a leaf-spine fabric — so a
change to the key grammar, the kinds table or the input rule shows up as
a changed digest.  Inputs come from a stub ``run_experiment`` whose values
depend on the key, so each descriptor must carry its own app's baseline.
"""

import hashlib
import json
import zlib

import pytest

import repro.core.experiments.pipeline as pipeline_mod
from repro.cluster import leaf_spine_config, small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.errors import ExperimentError
from repro.planner import PlannedCampaign, get_planner
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig


def _stub_runs(monkeypatch):
    """Replace ``run_experiment`` with a key-dependent stub; log its keys."""
    ran = []

    def run(descriptor):
        ran.append(descriptor.key)
        tag = zlib.crc32(descriptor.key.encode())
        if descriptor.kind == "calibration":
            return {"mean": 1e-6, "variance": 1e-14, "minimum": 5e-7, "sample_count": tag}
        return tag / 1e3

    monkeypatch.setattr(pipeline_mod, "run_experiment", run)
    return ran


PIPELINES = {
    "sim-quick-small": lambda: ReproductionPipeline(
        settings=PipelineSettings(profile="quick"),
        machine_config=small_test_config(seed=0),
    ),
    "analytic-paper": lambda: ReproductionPipeline(
        settings=PipelineSettings(profile="paper", engine="analytic"),
    ),
    "fluid-quick-leaf-spine": lambda: ReproductionPipeline(
        settings=PipelineSettings(profile="quick", engine="fluid"),
        machine_config=leaf_spine_config(seed=0),
    ),
}

#: sha256 per kind over the descriptor records of every key of that kind,
#: in ``product_keys()`` order.
DIGESTS = {
    "analytic-paper": {
        "baseline": "7fb5e804a55951d870419125f3c94341bc9011ada6c7d0c1acfac33bc549dcf7",
        "calibration": "1dd54900445160dfd5ffb387113640561eed13b35e68e7bda7d2cb1ac3da9081",
        "comp_sig": "c24b90fa34386458aa182ee7dabd79c774aff309d6a9362dbbaf67a0a334a8fa",
        "degradation": "ee0b097a564ebc6d3637008cc55aa2e795d30ad7777d4007ce82d8c37da18bd0",
        "impact": "714c679d9765e475c16ac38c66427d038e7f84b14371a5a0f150500e948e4ef2",
        "pair": "b576298b1bbc3eabb572dd7bcf3398fa8c2bf4e2712a72dfddf389dda1f588c1",
    },
    "fluid-quick-leaf-spine": {
        "baseline": "9cba0e662117859390e1d241c51b1c1165caeea45153711eb6439577beb6c5fb",
        "calibration": "83777f20f66034510de22b73af90ac4bbad75a38fb71b64efe51597aa98bccd0",
        "comp_sig": "079c00a09cc251727e886a97af52b7e548eb1288300b50076d86285dba62fc01",
        "degradation": "d6c551ec6a70f39eb3e9be4daf6585991aa65b913bdf01ef782499058f021705",
        "impact": "2415bceaa0ea526b9f191f1f460575d54fe7251265c14047d9ce70f94566cc45",
        "pair": "32f825e9e4b3af0896228b466cae6473bb18a5ed0975dd427082818b42e335a2",
    },
    "sim-quick-small": {
        "baseline": "bbfdf1fc193240c346f75aa2748a1f1f4e558659dd0d9d8c3f0d5e752a9637e1",
        "calibration": "0df536ce4e9be9391d17d7518bd6fd15e2cf4f8678473e508c6a42231fe0bc28",
        "comp_sig": "be2842df7ec2552ddca38fbda7899e845f903608a56a92c9b3067c97de9a88b2",
        "degradation": "2dc3d3b2f021f33a4f18b37e305c3b528638509e97f5d015bf1f743edfe67908",
        "impact": "321a5b5538bc11632f94200fff2bd5749f09e1b6137b651b575f07ab0124dc92",
        "pair": "86e1ca8891e5402684f0c1794b761aa05bd2c1343592a224f75ebfdebfeaac04",
    },
}


def _record(pipeline, descriptor):
    names = {id(workload): name for name, workload in pipeline.applications.items()}
    assert descriptor.settings is pipeline.settings
    assert descriptor.machine_config is pipeline.machine_config
    return {
        "key": descriptor.key,
        "kind": descriptor.kind,
        "workload": names[id(descriptor.workload)] if descriptor.workload else None,
        "other": names[id(descriptor.other)] if descriptor.other else None,
        "comp": descriptor.comp_config.label if descriptor.comp_config else None,
        "calibration": descriptor.calibration,
        "baseline": descriptor.baseline,
    }


def _digests(pipeline):
    records = {}
    for key in pipeline.product_keys():
        descriptor = pipeline.descriptor_for(pipeline.raw_key(key))
        records.setdefault(descriptor.kind, []).append(_record(pipeline, descriptor))
    return {
        kind: hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode("utf-8")
        ).hexdigest()
        for kind, rows in records.items()
    }


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_every_descriptor_matches_its_digest(monkeypatch, name):
    ran = _stub_runs(monkeypatch)
    pipeline = PIPELINES[name]()
    assert _digests(pipeline) == DIGESTS[name]
    # Only the inputs ran, each once, and each landed in the memo.
    inputs = ["calibration"] + [f"baseline/{app}" for app in pipeline.app_names]
    assert sorted(ran) == sorted(pipeline._key(raw) for raw in inputs)
    assert all(pipeline.has_product(raw) for raw in inputs)


# ----------------------------------------------------------------------
# Malformed keys
# ----------------------------------------------------------------------
def _small_pipeline(cache_path=None):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            impact_duration=0.005,
            signature_duration=0.005,
            calibration_duration=0.005,
            probe_interval=0.1 * MS,
            engine="analytic",
        ),
        machine_config=small_test_config(seed=0),
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[
            CompressionConfig(1, 1, 2.5e6),
            CompressionConfig(2, 1, 2.5e6),
            CompressionConfig(2, 1, 2.5e5),
            CompressionConfig(3, 2, 2.5e5),
        ],
        cache_path=cache_path,
    )


@pytest.mark.parametrize(
    "raw",
    [
        "impact",
        "impact/a/b",
        "pair/fftw",
        "calibration/x",
        "bogus/x",
        "comp_sig/P9xM9xB1e+00",
        "baseline/ghost",
    ],
)
def test_malformed_keys_raise(monkeypatch, raw):
    ran = _stub_runs(monkeypatch)
    pipeline = _small_pipeline()
    with pytest.raises(ExperimentError):
        pipeline.descriptor_for(raw)
    with pytest.raises(ExperimentError):
        pipeline.product(raw)
    assert ran == []


# ----------------------------------------------------------------------
# The planner reads what is measured and runs nothing
# ----------------------------------------------------------------------
def test_partial_engine_and_holdout_error_run_no_experiment(tmp_path, monkeypatch):
    pipeline = _small_pipeline(tmp_path / "cache")
    labels = [config.label for config in pipeline.catalog]
    measured = ["calibration", "impact/idle"]
    measured += [f"impact/{app}" for app in pipeline.app_names]
    measured += [f"comp_sig/{label}" for label in labels]
    measured += [f"baseline/{app}" for app in pipeline.app_names]
    measured += [
        f"degradation/{app}/{label}" for app in pipeline.app_names for label in labels[:2]
    ]
    measured.append(f"degradation/fftw/{labels[2]}")  # an incomplete column
    stats = pipeline.ensure_products(measured, workers=1)
    assert stats["executed"] == len(measured)

    campaign = PlannedCampaign(pipeline, get_planner("uncertainty"), holdout_per_round=2)
    holdout = campaign._next_holdout()
    assert len(holdout) == 2
    pipeline.ensure_products(holdout[:1], workers=1)  # one holdout pair measured

    def forbidden(descriptor):
        raise AssertionError(f"ran {descriptor.key}")

    monkeypatch.setattr(pipeline_mod, "run_experiment", forbidden)
    engine = campaign.partial_engine()
    assert engine is not None
    assert sorted(engine.signatures) == ["fftw", "mcb"]
    assert campaign._holdout_error() is not None
    assert not pipeline.has_product(holdout[1])
