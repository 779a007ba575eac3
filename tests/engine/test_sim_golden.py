"""Golden digests of every product of a small simulated campaign.

The simulator is deterministic for a fixed machine seed, so each product
the ``sim`` engine writes is pinned here by the SHA-256 of its canonical
JSON (``json.dumps(sort_keys=True)``).  The campaign runs FFTW and MCB on
the small test machine with two catalog configs, so every product kind
appears, including the degradations and a self-pair.  MCB is registered
under another name (``boom``), so the registry name and the workload's own
name differ, as they may in any campaign.  A change that moves any product
byte fails here.

After a deliberate change of simulated outputs, print the new digests
with ``PYTHONPATH=src python -m tests.engine.test_sim_golden`` and replace
the table below.
"""

import hashlib
import json
import sys

from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline, run_experiment
from repro.core.experiments import runner
from repro.core.experiments.cache import ShardedCache
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig


def _pipeline(cache_path=None):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=0,
            impact_duration=0.005,
            signature_duration=0.005,
            calibration_duration=0.005,
            probe_interval=0.1 * MS,
        ),
        machine_config=small_test_config(seed=0),
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "boom": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[CompressionConfig(1, 1, 2.5e6), CompressionConfig(2, 1, 2.5e5)],
        cache_path=cache_path,
    )


def _campaign(cache_path):
    """``{key: product digest}`` of a cold campaign."""
    stats = _pipeline(cache_path).ensure_all(workers=1)
    assert stats["failed"] == 0
    return {
        key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for key, value in ShardedCache(cache_path).snapshot().items()
    }


SIM_DIGESTS = {
    "baseline/boom": "a5a0459c1affdd86fe234a381dab3932dca74c980e3aadd98e67b2c8f99a32f1",
    "baseline/fftw": "f11f56442cac62eeefd0f83608fc802bc5021d6a72be196435b7db380f7c665c",
    "calibration": "7035612dad156336e2c3876057962b9fa0f07dc92220e84fb1697aa61dbb0e13",
    "comp_sig/P1xM1xB2.5e+06": "74c462fd7874021a11fe55984febcdbfa33a9e8a96e7835000c538796fea7f7c",
    "comp_sig/P2xM1xB2.5e+05": "5843766c17ec969515786f8f3df73b18ef1db292d9787ca50fbb7904d850eec1",
    "degradation/boom/P1xM1xB2.5e+06": "a2a0ed6b3c7d0649671682a510a790579d93b7a50277a58b4a965c7b6662a8af",
    "degradation/boom/P2xM1xB2.5e+05": "856da72856c601da4033c675ad1e3920baa69c4e4ec0af0f7cc45c838ac44396",
    "degradation/fftw/P1xM1xB2.5e+06": "7366cd3ebb6f7592b7e6d861c10444c646657ca58ce4fe943242696b9162cdde",
    "degradation/fftw/P2xM1xB2.5e+05": "8cc3a9d6e40bc089998bcbfb40b367a67e47e8dabb6377b97ecb2ae6d2541528",
    "impact/boom": "42bdd42cd19c1e129866d3ef19390390fb15ddd87c94bdb24286695071d420d4",
    "impact/fftw": "78a00ca07597c7e6be43a3131956f14d085ecaa97297930b273e36596cc243dd",
    "impact/idle": "6f10e189dc0c4fce291c74440aff9731c73dd600241fd78ef0072d3de4d00083",
    "pair/boom/boom": "31a41f93f4c629a9832a6fe0be5efe07f3d2a7753347dac8c65a4871764644c6",
    "pair/boom/fftw": "9ed93a3ca4d36d3e7d0264caf893ffc6a2fc42d599c1e4edb227c54e29c5b134",
    "pair/fftw/boom": "8aed642bf5118b9d3c859bd4be35ecac75b6e873cce34e7b6f554b06f75550d7",
    "pair/fftw/fftw": "c54862b0bb8b58bf77857cbb55299819a281a923526a0f4b7eef3ddf81be0512",
}


def test_sim_campaign_products_are_pinned(tmp_path):
    assert _campaign(tmp_path) == SIM_DIGESTS


def test_a_sim_pair_runs_one_simulation(monkeypatch):
    # The descriptor carries the measured app's baseline, so the co-run is
    # the only simulation, whatever name the app is registered under.
    descriptor = _pipeline().descriptor_for("pair/boom/boom")
    calls = []
    execute = runner.execute

    def counted(*args, **kwargs):
        calls.append(args)
        return execute(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "execute", None) is execute:
            monkeypatch.setattr(module, "execute", counted)
    run_experiment(descriptor)
    assert len(calls) == 1


if __name__ == "__main__":  # pragma: no cover - regenerates the table
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        digests = _campaign(directory)
    print(f"SIM_DIGESTS = {json.dumps(digests, indent=4, sort_keys=True)}")
