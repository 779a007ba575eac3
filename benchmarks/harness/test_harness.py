"""Tests of the benchmark harness itself (``pytest benchmarks/harness``).

They check the committed ``BENCHMARK.json`` against the schema the
harness relies on, and the pure helpers every run depends on: the tail
percentile, the compare rule, digests, self times and the rescaling to
reference speed.  No workload runs here.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import bench
from bench_stats import (
    PROBE_S,
    SpeedProbe,
    compare_runs,
    percentile,
    product_digest,
    set_digest,
    tail,
    tail_percentile,
)
from bench_trace import LAYER_TARGETS, Tracer, layer_metrics, self_times
from bench_workloads import CAMPAIGNS, SERVING_LAYER_METRICS

HARNESS = Path(__file__).resolve().parent
SPEC = json.loads((HARNESS.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_spec_has_exactly_the_schema_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/harness"]
    assert SPEC["command"][1] == "benchmarks/harness/bench.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_spec_names_units_and_counts():
    workloads, e2e, layers = SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [entry["name"] for entry in workloads + e2e + layers]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in e2e:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["bound"] > 0
    for metric in layers:
        assert set(metric) == {"name", "unit", "better"}
    for metric in e2e + layers:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_every_layer_metric_names_an_e2e_metric_and_workload():
    e2e = {metric["name"] for metric in SPEC["end_to_end"]}
    workloads = {workload["name"] for workload in SPEC["workloads"]}
    assert set(LAYER_TARGETS) == {metric["name"] for metric in SPEC["per_layer"]}
    for name, targets in LAYER_TARGETS.items():
        assert targets, name
        for metric, moved_on in targets:
            assert metric in e2e, (name, metric)
            assert moved_on and set(moved_on) <= workloads, (name, moved_on)


def test_traced_runs_produce_every_layer_metric():
    produced = set(layer_metrics([], {}, 1)) | set(SERVING_LAYER_METRICS)
    produced.add("trace.overhead_frac")
    assert produced == {metric["name"] for metric in SPEC["per_layer"]}


def test_workloads_match_the_harness():
    names = {workload["name"] for workload in SPEC["workloads"]}
    assert names == set(CAMPAIGNS) | {"serve-paper"}


@pytest.mark.parametrize("workload", sorted(CAMPAIGNS))
def test_expected_outputs_cover_seeds_zero_and_one(workload):
    seeds = json.loads((HARNESS / "expected" / f"{workload}.json").read_text())["seeds"]
    for seed in ("0", "1"):
        entry = seeds[seed]
        assert entry["set"] == set_digest(entry["products"])


@pytest.mark.parametrize("seed", ["0", "1"])
def test_planned_products_equal_the_full_campaigns(seed):
    def products(workload):
        document = json.loads((HARNESS / "expected" / f"{workload}.json").read_text())
        return document["seeds"][seed]["products"]

    full, planned = products("analytic-paper"), products("analytic-planned")
    assert planned and set(planned) <= set(full)
    assert {key: full[key] for key in planned} == planned


def test_expected_serving_error_is_the_committed_caches():
    seeds = json.loads((HARNESS / "expected" / "serve-paper.json").read_text())["seeds"]
    assert seeds["0"]["queue_mean_error"] == pytest.approx(3.152, abs=1e-3)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 90.0), (100, 90.0),
     (99, 50.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_percentile_matches_numpy():
    samples = list(np.random.default_rng(3).exponential(size=1234))
    for pct in (0, 50, 90, 99, 99.9, 100):
        assert percentile(samples, pct) == pytest.approx(np.percentile(samples, pct))


def test_tail_falls_back_to_the_maximum():
    assert tail([1.0, 5.0, 2.0]) == (None, 5.0)
    pct, value = tail(list(range(1000)))
    assert pct == 99.0 and value == pytest.approx(np.percentile(range(1000), 99))


# ----------------------------------------------------------------------
# Compare rule
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_compare_reports_a_gain_when_nine_tenths_of_pairs_win():
    new = [value * 1.2 for value in BASE]
    verdict = compare_runs(BASE, new, bound=0.1, better="higher")
    assert verdict["verdict"] == "gain" and verdict["won"] == 1.0


def test_compare_reports_a_regression_beyond_the_bound():
    new = [value * 1.2 for value in BASE]
    verdict = compare_runs(BASE, new, bound=0.1, better="lower")
    assert verdict["verdict"] == "regression"
    assert verdict["change"] == pytest.approx(-0.2, abs=0.01)


def test_compare_calls_a_small_change_the_same():
    new = [value * 1.03 for value in BASE]
    assert compare_runs(BASE, new, bound=0.1, better="lower")["verdict"] == "same"


def test_compare_marks_wide_spreads_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare_runs(BASE, noisy, bound=0.1, better="lower")["verdict"] == "unresolved"


def test_compare_resolves_wide_spreads_when_every_run_is_better():
    noisy = [300.0, 400.0, 350.0, 320.0, 380.0]
    assert compare_runs(BASE, noisy, bound=0.1, better="higher")["verdict"] == "gain"


def test_compare_needs_a_majority_of_pairs_for_a_gain():
    new = BASE[:5] + [value * 1.5 for value in BASE[5:]]
    verdict = compare_runs(BASE, new, bound=0.25, better="higher")
    assert verdict["verdict"] != "gain"


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def test_product_digest_ignores_key_order():
    one = {"mean": 1.5, "hist": {"edges": [1, 2], "counts": [3, 4]}}
    two = {"hist": {"counts": [3, 4], "edges": [1, 2]}, "mean": 1.5}
    assert product_digest(one) == product_digest(two)
    assert product_digest(one) != product_digest({**one, "mean": 1.5000000001})


def test_set_digest_ignores_key_order():
    digests = {"calibration": "a" * 64, "impact/idle": "b" * 64}
    assert set_digest(digests) == set_digest(dict(reversed(list(digests.items()))))
    assert set_digest(digests) != set_digest({**digests, "impact/idle": "c" * 64})


# ----------------------------------------------------------------------
# Tracing and timing helpers
# ----------------------------------------------------------------------
class _Base:
    def hop(self):
        return "base"


class _Child(_Base):
    pass


def test_tracer_restores_inherited_and_own_attributes():
    original = _Base.hop
    tracer = Tracer()
    tracer.patch(_Base, "hop", tracer.spanned("base.hop"))
    tracer.patch(_Child, "hop", tracer.counted("hops"))
    assert _Child().hop() == "base"
    tracer.restore()
    assert "hop" not in vars(_Child) and _Base.hop is original
    assert tracer.counts["hops"] == 1
    assert [span[0] for span in tracer.spans] == ["base.hop"]


def test_self_time_subtracts_children():
    spans = [
        ("outer", 0, 100, 1, 0, 7, 1, {}),
        ("inner", 10, 30, 2, 1, 7, 1, {}),
        ("inner", 50, 20, 3, 1, 7, 1, {}),
        ("leaf", 12, 5, 4, 2, 7, 1, {}),
    ]
    assert self_times(spans) == {1: 50, 2: 25, 3: 20, 4: 5}


def test_probe_rescales_to_reference_speed():
    probe = SpeedProbe()
    assert probe.rescale(3.0) == 3.0
    # Twice as slow throughout: twice the wall time, less the probe's, reads the same.
    probe.samples, probe.wall_s = [2 * PROBE_S] * 10, 0.5
    assert probe.rescale(6.5) == pytest.approx(3.0)
    # Evenly spaced samples weight each stretch by the work done in it.
    probe.samples = [PROBE_S, 3 * PROBE_S]
    assert probe.scale() == pytest.approx(2 / 3)


@pytest.mark.parametrize("sockets", [False, True])
def test_probe_samples_a_running_phase(sockets):
    with SpeedProbe(sockets=sockets) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert probe.samples and all(sample > 0 for sample in probe.samples)
    assert 0 < probe.wall_s < 0.2


def test_run_length_is_the_benchmarks(capsys):
    seconds = SPEC["run_seconds"]
    assert bench.main(["run", "--workload", "sim-apps", "--seconds", str(seconds + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err
