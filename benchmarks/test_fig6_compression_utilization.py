"""Fig. 6 — switch utilization achieved by the CompressionB catalog.

Paper claims reproduced here:
* utilization decreases with longer sleeps (B);
* utilization rises with partner count (P) and message count (M);
* the catalog spans a broad utilization range (paper: 26%–92%).
"""

from collections import defaultdict

from conftest import save_artifact

from repro.analysis.report import fig6


def test_fig6_compression_utilization(benchmark, pipeline, artifact_dir):
    observations, text = benchmark.pedantic(
        fig6, args=(pipeline,), rounds=1, iterations=1
    )
    save_artifact(artifact_dir, "fig6_compression_utilization.txt", text)

    values = [obs.utilization for obs in observations]
    assert all(0.0 <= value < 1.0 for value in values)
    assert max(values) - min(values) > 0.3, "catalog must span a broad range"

    # Trend: at fixed (P, M), utilization decreases as sleep B grows.
    by_pm = defaultdict(list)
    for obs in observations:
        by_pm[(obs.config.partners, obs.config.messages)].append(
            (obs.config.sleep_cycles, obs.utilization)
        )
    for (_p, _m), series in by_pm.items():
        if len(series) < 2:
            continue
        series.sort()
        # Allow small stochastic wiggle at the saturated top end.
        assert series[0][1] >= series[-1][1] - 0.05, (
            f"utilization should fall with B for P={_p}, M={_m}: {series}"
        )

    # Trend: at fixed (B, M), utilization rises with partner count.
    by_bm = defaultdict(list)
    for obs in observations:
        by_bm[(obs.config.sleep_cycles, obs.config.messages)].append(
            (obs.config.partners, obs.utilization)
        )
    for (_b, _m), series in by_bm.items():
        if len(series) < 2:
            continue
        series.sort()
        assert series[-1][1] >= series[0][1] - 0.05, (
            f"utilization should rise with P for B={_b}, M={_m}: {series}"
        )
