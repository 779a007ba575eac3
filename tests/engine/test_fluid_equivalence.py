"""Fluid-engine agreement contracts against the other two tiers.

The fluid engine earns its place in the tier ladder with three promises:

1. **Single switch = analytic, to solver precision.**  On the paper's
   single-switch scenario the fluid fixed point must reduce to the
   closed-form M/G/1 answer — the same formulas — so the two tiers agree to
   solver precision (~1e-12), not just to a band, and the calibration is
   byte-identical.
2. **Within the sim bands.**  Wherever the packet engine overlaps (the
   18-node class of machines, small healthy fabrics), fluid predictions
   must sit inside the same tolerance bands the analytic engine is held to
   in ``test_equivalence.py``.
3. **Honest refusal.**  Past its validity ceiling (utilization ≥ 0.95 at
   any fabric resource) the fluid engine must name the saturated resource
   and point at the simulator, never extrapolate.

Plus the degenerate-fabric guarantee shared with the other engines: a
1-leaf fabric is the same physical system as the single switch and must
produce bit-identical fluid products of every kind.
"""

import json
from dataclasses import replace

import pytest

from repro.cluster import cab_config, large_fabric_config, small_test_config
from repro.config import TopologyConfig
from repro.core.experiments import (
    ExperimentDescriptor,
    PipelineSettings,
    ReproductionPipeline,
)
from repro.core.experiments.pipeline import run_experiment
from repro.errors import AnalyticModelError
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig

SETTINGS = PipelineSettings(
    profile="quick",
    seed=0,
    impact_duration=0.01,
    signature_duration=0.01,
    calibration_duration=0.02,
    probe_interval=0.1 * MS,
)


def _pipeline(engine, machine_config, cache_path=None):
    return ReproductionPipeline(
        settings=replace(SETTINGS, engine=engine),
        machine_config=machine_config,
        applications={"fftw": FFTW(iterations=1, pack_compute=5e-5)},
        catalog=[CompressionConfig(1, 1, 2.5e6)],
        cache_path=cache_path,
    )


def _fabric_config():
    # Four nodes re-cabled as a healthy 2×2 fabric with two spines: small
    # enough for the packet engine, multi-leaf enough to exercise ECMP.
    return replace(
        small_test_config(seed=0, node_count=4),
        topology=TopologyConfig(
            kind="leaf-spine", leaf_count=2, nodes_per_leaf=2, spine_count=2
        ),
    )


# ----------------------------------------------------------------------
# Promise 1: exact reduction to the analytic tier on a single switch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cab_fluid():
    return _pipeline("fluid", cab_config(seed=0))


@pytest.fixture(scope="module")
def cab_analytic():
    return _pipeline("analytic", cab_config(seed=0))


def test_single_switch_reduces_to_analytic(cab_fluid, cab_analytic):
    # The 18-node overlap: identical formulas, so agreement is solver
    # precision — twelve significant digits, not a tolerance band.
    assert cab_fluid.calibration().mean == pytest.approx(
        cab_analytic.calibration().mean, rel=1e-12
    )
    assert cab_fluid.idle_signature().mean == pytest.approx(
        cab_analytic.idle_signature().mean, rel=1e-12
    )
    fluid = cab_fluid.app_impact("fftw")
    analytic = cab_analytic.app_impact("fftw")
    assert fluid.true_utilization == pytest.approx(
        analytic.true_utilization, rel=1e-12
    )
    assert fluid.signature.mean == pytest.approx(analytic.signature.mean, rel=1e-12)
    assert cab_fluid.app_baseline("fftw") == pytest.approx(
        cab_analytic.app_baseline("fftw"), rel=1e-12
    )


def test_single_switch_calibration_is_bit_identical(cab_fluid, cab_analytic):
    # The calibration path has no fixed point to solve — it must be not
    # merely close but byte-for-byte the analytic artifact.
    assert json.dumps(cab_fluid.calibration().to_dict(), sort_keys=True) == json.dumps(
        cab_analytic.calibration().to_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Promise 2: inside the sim bands (single switch and healthy fabric)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_sim():
    return _pipeline("sim", small_test_config(seed=0))


@pytest.fixture(scope="module")
def small_fluid():
    return _pipeline("fluid", small_test_config(seed=0))


@pytest.fixture(scope="module")
def fabric_sim():
    return _pipeline("sim", _fabric_config())


@pytest.fixture(scope="module")
def fabric_fluid():
    return _pipeline("fluid", _fabric_config())


@pytest.mark.parametrize("sim_name,fluid_name", [
    ("small_sim", "small_fluid"),
    ("fabric_sim", "fabric_fluid"),
])
def test_fluid_within_sim_bands(sim_name, fluid_name, request):
    # The same bands test_equivalence.py holds the analytic engine to:
    # deterministic idle latency tight, driven utilization within 0.05
    # absolute, congested signature within queueing-model tolerance,
    # baseline runtime within 10%.
    sim = request.getfixturevalue(sim_name)
    fluid = request.getfixturevalue(fluid_name)
    assert fluid.calibration().mean == pytest.approx(sim.calibration().mean, rel=0.05)
    sim_impact = sim.app_impact("fftw")
    fluid_impact = fluid.app_impact("fftw")
    assert fluid_impact.true_utilization == pytest.approx(
        sim_impact.true_utilization, abs=0.05
    )
    assert fluid_impact.signature.mean == pytest.approx(
        sim_impact.signature.mean, rel=0.25
    )
    assert fluid.app_baseline("fftw") == pytest.approx(
        sim.app_baseline("fftw"), rel=0.10
    )


# ----------------------------------------------------------------------
# Degenerate fabric: bit identity with the single switch
# ----------------------------------------------------------------------
WORKLOADS = {
    "fftw": lambda: FFTW(iterations=1, pack_compute=5e-5),
    "mcb": lambda: MCB(),
}
OTHER = {"fftw": "mcb", "mcb": "fftw"}
CATALOG_CONFIG = CompressionConfig(1, 1, 2.5e6)
# A quick campaign's own settings: its 0.25 ms probe interval is one under
# which a route-by-route fold and a block sum disagree in the last bit.
CAMPAIGN_SETTINGS = PipelineSettings(profile="quick", seed=0, engine="fluid")


def _run(machine_config, kind, **fields):
    return run_experiment(
        ExperimentDescriptor(
            key=f"{kind}/fluid-equiv",
            kind=kind,
            settings=CAMPAIGN_SETTINGS,
            machine_config=machine_config,
            **fields,
        )
    )


def _product(kind, app, machine_config):
    """One product of ``kind`` for ``app``, with its inputs computed first."""
    if kind == "calibration":
        return _run(machine_config, kind)
    if kind == "comp_sig":
        calibration = _run(machine_config, "calibration")
        return _run(
            machine_config, kind, comp_config=CATALOG_CONFIG, calibration=calibration
        )
    workload = WORKLOADS[app]()
    if kind == "impact":
        calibration = _run(machine_config, "calibration")
        return _run(machine_config, kind, workload=workload, calibration=calibration)
    baseline = _run(machine_config, "baseline", workload=workload)
    if kind == "baseline":
        return baseline
    if kind == "degradation":
        return _run(
            machine_config,
            kind,
            workload=workload,
            comp_config=CATALOG_CONFIG,
            baseline=baseline,
        )
    return _run(
        machine_config,
        kind,
        workload=workload,
        other=WORKLOADS[OTHER[app]](),
        baseline=baseline,
    )


def _canonical(product):
    return json.dumps(product, sort_keys=True, default=str)


KINDS = ["calibration", "impact", "comp_sig", "baseline", "degradation", "pair"]
# Calibration and comp_sig involve no app; every other kind runs for both.
CASES = [pytest.param(kind, "fftw", id=kind) for kind in KINDS] + [
    pytest.param(kind, "mcb", id=f"{kind}-mcb")
    for kind in ("impact", "baseline", "degradation", "pair")
]


@pytest.mark.parametrize("kind, app", CASES)
def test_degenerate_fabric_is_bit_identical_to_single_switch(kind, app):
    single = _canonical(_product(kind, app, small_test_config(seed=0)))
    degenerate = _canonical(
        _product(
            kind,
            app,
            replace(
                small_test_config(seed=0),
                topology=TopologyConfig(
                    kind="leaf-spine", leaf_count=1, nodes_per_leaf=4, spine_count=1
                ),
            ),
        )
    )
    assert degenerate == single


# ----------------------------------------------------------------------
# Promise 3: honest refusal past the validity ceiling
# ----------------------------------------------------------------------
def test_saturated_fabric_refusal_names_the_resource():
    # FFTW's all-to-all transpose saturates the spines of the 4:1
    # oversubscribed 512-node preset; the refusal must name the saturated
    # resource and the engine that can still model the scenario.
    pipeline = _pipeline("fluid", large_fabric_config(seed=0))
    with pytest.raises(AnalyticModelError) as excinfo:
        pipeline.app_impact("fftw")
    message = str(excinfo.value)
    assert "spine" in message
    assert "--engine sim" in message


def test_large_fabric_healthy_workload_solves():
    # The flip side: scenarios that do not saturate the fabric must get a
    # real answer at 512 nodes — the scale the fluid tier exists for.
    pipeline = _pipeline("fluid", large_fabric_config(seed=0))
    calibration = pipeline.calibration()
    assert calibration.mean > 0
    idle = pipeline.idle_signature()
    assert idle.mean >= calibration.mean > 0
