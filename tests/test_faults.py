"""Tests for the deterministic fault-injection plan (repro.faults)."""

import json

import pytest

from repro.errors import ConfigurationError, InjectedFault
from repro.faults import (
    ENV_VAR,
    FaultPlan,
    active_fault_plan,
    current_attempt,
    set_current_attempt,
    set_fault_plan,
)


@pytest.fixture(autouse=True)
def _clean_activation(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_fault_plan(None)
    yield
    set_fault_plan(None)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def test_parse_full_plan():
    plan = FaultPlan.from_json(
        json.dumps(
            {
                "fail": {"pair/a/b": "*", "impact/a": [1, 3]},
                "crash": {"baseline/a": [1]},
                "hang": {"comp_sig/x": [2]},
                "hang_seconds": 7.5,
                "corrupt_shards": ["degradation"],
            }
        )
    )
    assert plan.fail["pair/a/b"] is None  # every attempt
    assert plan.fail["impact/a"] == frozenset({1, 3})
    assert plan.crash["baseline/a"] == frozenset({1})
    assert plan.hang_seconds == 7.5
    assert plan.corrupt_shards == ("degradation",)
    assert not plan.is_empty()


def test_parse_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown field"):
        FaultPlan.from_dict({"explode": {}})


def test_parse_rejects_bad_attempts():
    with pytest.raises(ConfigurationError, match="attempts"):
        FaultPlan.from_dict({"fail": {"k": "sometimes"}})


@pytest.mark.parametrize(
    "plan, match",
    [
        ({"hang_seconds": "x"}, "must be a number"),
        ({"hang_seconds": [1]}, "must be a number"),
        ({"hang_seconds": True}, "must be a number"),
        ({"hang_seconds": -5}, "must be >= 0"),
        ({"hang_seconds": float("nan")}, "must be finite"),
        ({"hang_seconds": float("inf")}, "must be finite"),
        ({"fail": {"k": [True]}}, "attempts"),
        ({"fail": {"k": True}}, "attempts"),
        ({"crash": {"k": [0, -3]}}, "attempts"),
        ({"hang": {"k": 0}}, "attempts"),
        ({"fail": {"k": [1.0]}}, "attempts"),
    ],
)
def test_parse_rejects_bad_hang_seconds_and_attempts(plan, match):
    with pytest.raises(ConfigurationError, match=match):
        FaultPlan.from_dict(plan)


def test_parse_accepts_whole_and_zero_hang_seconds():
    assert FaultPlan.from_dict({"hang_seconds": 0}).hang_seconds == 0.0
    plan = FaultPlan.from_dict({"hang_seconds": 5, "hang": {"k": 2}})
    assert plan.hang_seconds == 5.0 and isinstance(plan.hang_seconds, float)
    assert plan.hang == {"k": frozenset({2})}


def test_parse_rejects_non_json():
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        FaultPlan.from_json("{nope")


def test_parse_reads_a_plan_file_and_rejects_a_missing_one(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"fail": {"impact/a": [1]}}))
    assert FaultPlan.from_json(f"@{path}").fail == {"impact/a": frozenset({1})}
    with pytest.raises(ConfigurationError, match="cannot read"):
        FaultPlan.from_json(f"@{tmp_path / 'missing.json'}")


def test_parse_rejects_non_object():
    with pytest.raises(ConfigurationError, match="must be an object"):
        FaultPlan.from_json("[1, 2]")


# ----------------------------------------------------------------------
# Injection behavior
# ----------------------------------------------------------------------
def test_fail_fires_only_on_listed_attempts():
    plan = FaultPlan.from_dict({"fail": {"impact/a": [1]}})
    with pytest.raises(InjectedFault, match="impact/a"):
        plan.on_experiment("impact/a", 1)
    plan.on_experiment("impact/a", 2)  # retry attempt passes clean
    plan.on_experiment("impact/b", 1)  # other keys untouched


def test_fail_star_fires_on_every_attempt():
    plan = FaultPlan.from_dict({"fail": {"pair/a/b": "*"}})
    for attempt in (1, 2, 5):
        with pytest.raises(InjectedFault):
            plan.on_experiment("pair/a/b", attempt)


def test_shard_corruption_is_consumed_once_per_group():
    plan = FaultPlan.from_dict({"corrupt_shards": ["degradation", "pair"]})
    assert plan.take_shard_corruption("degradation")
    assert not plan.take_shard_corruption("degradation")
    assert not plan.take_shard_corruption("impact")
    assert plan.take_shard_corruption("pair")


# ----------------------------------------------------------------------
# Activation
# ----------------------------------------------------------------------
def test_no_plan_by_default():
    assert active_fault_plan() is None


def test_env_var_inline_json(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"fail": {"k": [1]}}))
    plan = active_fault_plan()
    assert plan is not None and plan.fail["k"] == frozenset({1})
    # Cached: same env value returns the same (stateful) instance.
    assert active_fault_plan() is plan


def test_env_var_file_reference(monkeypatch, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"corrupt_shards": ["impact"]}))
    monkeypatch.setenv(ENV_VAR, f"@{path}")
    plan = active_fault_plan()
    assert plan is not None and plan.corrupt_shards == ("impact",)


def test_empty_env_plan_is_no_plan(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "{}")
    assert active_fault_plan() is None


def test_programmatic_override_beats_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"fail": {"env": "*"}}))
    override = FaultPlan.from_dict({"fail": {"override": "*"}})
    set_fault_plan(override)
    assert active_fault_plan() is override
    set_fault_plan(None)
    assert active_fault_plan().fail == {"env": None}


# ----------------------------------------------------------------------
# Attempt context
# ----------------------------------------------------------------------
def test_attempt_context_defaults_to_one():
    assert current_attempt() == 1


def test_attempt_context_roundtrip():
    set_current_attempt(3)
    assert current_attempt() == 3
    set_current_attempt(1)
