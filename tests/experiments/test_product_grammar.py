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
        "baseline": "9b1d5000f6d6f2f71282517d1cce2d0f7a1602e6236258c629c3c2bcf9f95f02",
        "calibration": "934e27500ae685553218574ced7f26bac81d484a44d8463365432700bb1aa2a2",
        "comp_sig": "0269703e97989cd9fd2b98b4214f26b20a34fa54e1cab5c03801a1173494bd0c",
        "degradation": "6c7fcb0c2ec35a3ca209e4ba00c8a88d7a1d0fa8a45c4c7f92d0960f99f21327",
        "impact": "e9849292cc42e4d9d6c6b17723a9cdb8e3538c55619079562cd62ab0330e44a5",
        "pair": "443faa37e23207443148ede55afba903942342d5c0fe008c09769b9a7c01e5a5",
    },
    "fluid-quick-leaf-spine": {
        "baseline": "ba58d39af41c0ad17eb2d37e0f48ae160ca0ab8dc118678b3b34b88bd00c4c05",
        "calibration": "d76e8caff030824cb3dae80883c204239e47ab2e584a71c6687be3742769343a",
        "comp_sig": "049af5b029cbbbb2fe34e6ebf03b0e5dda3355d2068d7f15dd01bcd6cb82e074",
        "degradation": "2d27edd114a719e62d888fc58d10f6d1445a450ebe2b41f6bf0b8422a435fb56",
        "impact": "b8bbcf41b628e632ae337c277bee8fe6fa7d63e69f0568714468afd094293736",
        "pair": "3692eeb12cacac807d6191b8ddf032bfcf1bca4121086f84a439967e7971975c",
    },
    "sim-quick-small": {
        "baseline": "6e4673afa53a7c77c8c3c63b58c83ca3b29da5cdea6b04e29a6d34e4c1c0c481",
        "calibration": "d01b2a32ff67b000f98d0d430ea8b85b4329fb2a116bc5da7f25d956756df054",
        "comp_sig": "cf5357e8081d4e0c6febe76b8d67f4f3b5ebfde05b833c0afd53f88b66a85a7c",
        "degradation": "8141ed9d9523a0ec95ed06b1fe00cd90a4b9460b0751b0e53ddbd8d6d6ed78ec",
        "impact": "e956dc7057adf5120206d265cf42733a59952e38a23170d6702c5b32054c7765",
        "pair": "8e1765321c7d1e7b1ca01651331a54b62105f7c27cb72a1937232713f7eb3c9d",
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
        "label": descriptor.label,
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
