"""Fabric smoke: a lossy leaf-spine campaign end to end, bit-identical on re-run.

Usage: python scripts/fabric_smoke.py OUT_DIR

Runs a tiny sim campaign on the single-switch baseline
(``OUT_DIR/ci-fabric-base``) and the same campaign twice on a 2×2×2
leaf-spine fabric with one lossy and one degraded spine direction
(``OUT_DIR/ci-fabric-a`` and ``OUT_DIR/ci-fabric-b``).  Checks that the two
fabric runs hold identical products under the fabric's scenario tag, then
writes the fabric-vs-baseline comparison to
``OUT_DIR/ci-fabric-a/fabric_report.json`` and checks that it covers every
model and all four pairs.  Exits non-zero on any violation.
"""

import json
import pathlib
import sys

from repro.analysis import (
    fabric_comparison, render_fabric_comparison, write_fabric_report,
)
from repro.cluster import leaf_spine_config, small_test_config
from repro.config import LinkFaultConfig, scenario_tag
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.units import MS
from repro.workloads import FFTW, MCB, CompressionConfig

# One lossy direction and one degraded direction on the same spine: the
# campaign must route around nothing (ECMP still hashes flows onto it) and
# simply live with the faults.
FAULTS = (
    LinkFaultConfig(link="leaf*->spine0", drop_probability=0.02),
    LinkFaultConfig(link="spine0->leaf*", speed_factor=0.25),
)


def pipeline(machine, cache):
    return ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick", seed=0,
            impact_duration=0.01, signature_duration=0.01,
            calibration_duration=0.02, probe_interval=0.1 * MS,
        ),
        machine_config=machine,
        applications={
            "fftw": FFTW(iterations=1, pack_compute=5e-5),
            "mcb": MCB(iterations=2, track_compute=2e-4),
        },
        catalog=[
            CompressionConfig(1, 1, 2.5e6),
            CompressionConfig(2, 1, 2.5e5),
        ],
        cache_path=cache,
    )


def fabric(cache):
    machine = leaf_spine_config(
        seed=0, leaf_count=2, nodes_per_leaf=2, spine_count=2,
        faults=FAULTS,
    )
    p = pipeline(machine, cache)
    p.ensure_all(workers=2)
    return p


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    baseline = pipeline(small_test_config(seed=0), out / "ci-fabric-base")
    baseline.ensure_all(workers=2)
    fab = fabric(out / "ci-fabric-a")
    rerun = fabric(out / "ci-fabric-b")
    a = json.dumps(fab._cache.snapshot(), sort_keys=True)
    b = json.dumps(rerun._cache.snapshot(), sort_keys=True)
    assert a == b, "faulted fabric campaign diverged across re-runs"

    tag = scenario_tag(fab.machine_config)
    assert tag and all(k.startswith(f"{tag}:") for k in fab.product_keys())
    comparison = fabric_comparison(baseline, fab)
    print(render_fabric_comparison(comparison))
    report_path = out / "ci-fabric-a" / "fabric_report.json"
    write_fabric_report(comparison, report_path)
    report = json.loads(report_path.read_text())
    assert report["models"] and report["delta"], report.keys()
    pairs = next(iter(report["fabric"].values()))["per_pair"]
    assert len(pairs) == 4, sorted(pairs)
    print(f"OK: lossy+degraded fabric campaign ({tag}) bit-identical "
          f"across re-runs; report covers {len(report['models'])} models")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
