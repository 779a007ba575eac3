"""Fluid-engine speedup smoke: fluid against packet simulation at scale.

Usage: python scripts/fluid_speedup_smoke.py

Times the same two products, the calibration and one Lulesh impact at
quick durations, on the fluid engine and on the packet simulator, for a
128-node fabric (4 leaves of 32 nodes, 4 spines) and for the 512-node
``large_fabric_config`` preset.  Prints both times and their ratio at
each scale, and exits non-zero unless the fluid engine is at least
``REQUIRED_SPEEDUP`` times faster at both.  The packet simulator's side
takes about a minute and a half on one core.
"""

import sys
import time

from repro.cluster import large_fabric_config, leaf_spine_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.units import MS
from repro.workloads import CompressionConfig, Lulesh

REQUIRED_SPEEDUP = 10.0
SCALES = {
    128: lambda: leaf_spine_config(
        seed=0, leaf_count=4, nodes_per_leaf=32, spine_count=4
    ),
    512: lambda: large_fabric_config(seed=0),
}


def product_seconds(engine: str, machine_config) -> float:
    """Wall seconds for the calibration and the Lulesh impact on ``engine``."""
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(
            profile="quick",
            seed=0,
            impact_duration=0.01,
            signature_duration=0.01,
            calibration_duration=0.02,
            probe_interval=0.1 * MS,
            engine=engine,
        ),
        machine_config=machine_config,
        applications={"lulesh": Lulesh(iterations=2, compute_per_iter=2e-4)},
        catalog=[CompressionConfig(1, 1, 2.5e6)],
    )
    start = time.perf_counter()
    pipeline.calibration()
    impact = pipeline.app_impact("lulesh")
    elapsed = time.perf_counter() - start
    if not 0.0 <= impact.true_utilization < 0.95:
        raise SystemExit(
            f"{engine}: Lulesh utilization {impact.true_utilization} "
            "outside [0, 0.95)"
        )
    return elapsed


def main() -> int:
    slow = []
    for nodes, build in SCALES.items():
        machine_config = build()
        assert machine_config.node_count == nodes, machine_config.node_count
        fluid = product_seconds("fluid", machine_config)
        sim = product_seconds("sim", machine_config)
        print(
            f"{nodes} nodes: sim {sim:.2f} s, fluid {fluid:.3f} s, "
            f"fluid {sim / fluid:.0f}x faster",
            flush=True,
        )
        if sim < REQUIRED_SPEEDUP * fluid:
            slow.append(nodes)
    if slow:
        raise SystemExit(
            f"fluid under {REQUIRED_SPEEDUP:.0f}x faster than sim at "
            f"{', '.join(map(str, slow))} nodes"
        )
    print(f"OK: fluid at least {REQUIRED_SPEEDUP:.0f}x faster than sim at every scale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
