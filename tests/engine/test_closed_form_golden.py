"""Golden digests of every closed-form product of two small campaigns.

The analytic and fluid engines are deterministic, so each product they
write is pinned here by the SHA-256 of its canonical JSON
(``json.dumps(sort_keys=True)``).  One campaign runs the analytic engine on
the Cab single switch, the other the fluid engine on a healthy 2×2
leaf-spine fabric.  Both use FFTW, MILC and two catalog configs, so every
product kind appears; the fabric's refused products are pinned by key and
exception class.  A change that moves any product byte fails here.

After a deliberate change of closed-form outputs, print the new digests
with ``PYTHONPATH=src python -m tests.engine.test_closed_form_golden`` and
replace the tables below.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.cluster import cab_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.core.experiments.cache import ShardedCache
from repro.units import MS
from repro.workloads import FFTW, MILC, CompressionConfig

from .test_fluid_equivalence import _fabric_config

SETTINGS = PipelineSettings(
    profile="quick",
    seed=0,
    impact_duration=0.01,
    signature_duration=0.01,
    calibration_duration=0.02,
    probe_interval=0.1 * MS,
)
CATALOG = [CompressionConfig(1, 1, 2.5e6), CompressionConfig(4, 10, 2.5e5)]


def _campaign(engine, machine_config, cache_path):
    """``({key: product digest}, {refused key: exception class})``."""
    pipeline = ReproductionPipeline(
        settings=replace(SETTINGS, engine=engine),
        machine_config=machine_config,
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "milc": MILC(iterations=4),
        },
        catalog=CATALOG,
        cache_path=cache_path,
    )
    stats = pipeline.ensure_all(workers=1)
    digests = {
        key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for key, value in ShardedCache(cache_path).snapshot().items()
    }
    refused = {
        record["key"]: record["message"].split(":", 1)[0]
        for record in stats["failure_records"]
    }
    return digests, refused


ANALYTIC_DIGESTS = {
    "analytic:baseline/fftw": "a729dd26daa66177669cfac3355bb2c4697233f5a0a1ca5c305e49a517bad625",
    "analytic:baseline/milc": "8f9babd71a23784be8dfdd115a6813a4d5e7c50e0f55518c2561c266253a9713",
    "analytic:calibration": "a67f1b5bd2e00c9ef4bb34c54ca669ddf891cf98b889addf8629b9a006288e91",
    "analytic:comp_sig/P1xM1xB2.5e+06": "72f8d0c0977caddeab5a4bd270e82399ba448d708bc6514f88148763fa8f9d70",
    "analytic:comp_sig/P4xM10xB2.5e+05": "9d937b339d5924d92d4db4fbb4e8fdd7abaf5f57eb0af8423160d35af6315364",
    "analytic:degradation/fftw/P1xM1xB2.5e+06": "284f2f294d591fc617621327367aad6e1467775810378c25b754180661f13afb",
    "analytic:degradation/fftw/P4xM10xB2.5e+05": "62eabf2b0f4aa2670806d29c4d93d0eec4891eedcac6eb248d63e42542c9b06e",
    "analytic:degradation/milc/P1xM1xB2.5e+06": "0a798f1c6b5ef8fb8756fbe8cd179804e981ece4f05a9cca9c7d4097adf03992",
    "analytic:degradation/milc/P4xM10xB2.5e+05": "6d1c6c306ae9418a057b090da2ba0b75d9bc9207846dbe30949df8ea64a78ad6",
    "analytic:impact/fftw": "0036f4f0b93f273c51f536b38cf1247356c9ae6874fc25c30633b752b49bca0d",
    "analytic:impact/idle": "2e560cff903ee0ff8cc83f5e084df587e4a3ef5c9bba5be505daf531576ff274",
    "analytic:impact/milc": "b2cb4ef1107dc9cb827cc1dc8066c5de89c3e7be017a2fc49c427810bb398042",
    "analytic:pair/fftw/fftw": "186b534d64ad45388ba030281a41cbbfa2a97300c37249ecc4718e3dea61bc34",
    "analytic:pair/fftw/milc": "4afd620dc14b613138b99a585623bd027545271857e881ca28a2e2e4d8e5c435",
    "analytic:pair/milc/fftw": "5ad22fbfab58c8dbf7c250ab73f9e8e0000668c69876aa20ea32c18fe7c56867",
    "analytic:pair/milc/milc": "d47c7c733dab6b99eab1a6018bea3093ad50ee997b534fe3b95275a7d5e41141",
}

FLUID_DIGESTS = {
    "ls2x2s2:fluid:baseline/fftw": "8363c6c51fabe37583c88f77b3cea0c799751f686b3660a20761769e4130b534",
    "ls2x2s2:fluid:baseline/milc": "f75508de4b18c783a3cf00bae2ab0209fd9dc9879b513247788365fd21c066b1",
    "ls2x2s2:fluid:calibration": "e54001c102f64ff50652aab4247aa9212aadcb9bc872405440965e30eefacb02",
    "ls2x2s2:fluid:comp_sig/P1xM1xB2.5e+06": "8c6181661d80a742a861af48e6881ccad2dea33088084aa321d70f18871be140",
    "ls2x2s2:fluid:degradation/fftw/P1xM1xB2.5e+06": "6d88de395859b709c7d5316bd1f5d63255d38a0a8c0305ec3cbd65e48e4b3d4e",
    "ls2x2s2:fluid:degradation/milc/P1xM1xB2.5e+06": "76b62bcc00acaa883594b7e4df46b977679bc0a4ed9a4ab6dbec9fa234673261",
    "ls2x2s2:fluid:impact/fftw": "343a2ce7224565af8a9c3df3ddb1a656fe6edcec3d5f6e868de3c92a505518fa",
    "ls2x2s2:fluid:impact/idle": "a1c6b2144223afa7e9dc0060bbd0c95edc865635bb62a0ff554d806e70ee3d60",
    "ls2x2s2:fluid:impact/milc": "63434007734d82bdf8ae0b146c9154f843e6c4a291c46b307eda9be4eed1c738",
    "ls2x2s2:fluid:pair/fftw/fftw": "1a4624abba5729c184883935ade93c0ad5d3028a2b164b139401fc48a7d87d94",
    "ls2x2s2:fluid:pair/fftw/milc": "a30a18a2e0d0c96146dda29119d80a77de85ed12afc4f9eb90e679490932112a",
    "ls2x2s2:fluid:pair/milc/fftw": "e83b947257c2c767d06aeebdf8066315a3d1976b39c23ec8de906d28485795b4",
    "ls2x2s2:fluid:pair/milc/milc": "8e70891c62e521d4106a67d93fb6a6199e197857096b3e850336370508bd97d9",
}

FLUID_REFUSED = {
    "ls2x2s2:fluid:comp_sig/P4xM10xB2.5e+05": "AnalyticModelError",
    "ls2x2s2:fluid:degradation/fftw/P4xM10xB2.5e+05": "AnalyticModelError",
    "ls2x2s2:fluid:degradation/milc/P4xM10xB2.5e+05": "AnalyticModelError",
}


def test_analytic_campaign_products_are_pinned(tmp_path):
    digests, refused = _campaign("analytic", cab_config(seed=0), tmp_path)
    assert refused == {}
    assert digests == ANALYTIC_DIGESTS


def test_fluid_fabric_campaign_products_are_pinned(tmp_path):
    digests, refused = _campaign("fluid", _fabric_config(), tmp_path)
    assert refused == FLUID_REFUSED
    assert digests == FLUID_DIGESTS


if __name__ == "__main__":  # pragma: no cover - regenerates the tables
    import tempfile

    for name, engine, config in (
        ("ANALYTIC", "analytic", cab_config(seed=0)),
        ("FLUID", "fluid", _fabric_config()),
    ):
        with tempfile.TemporaryDirectory() as directory:
            digests, refused = _campaign(engine, config, directory)
        print(f"{name}_DIGESTS = {json.dumps(digests, indent=4, sort_keys=True)}")
        print(f"{name}_REFUSED = {json.dumps(refused, indent=4, sort_keys=True)}")
