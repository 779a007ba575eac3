"""Tests for the engine table behind ``get_engine``."""

import pytest

from repro.engine import available_engines, get_engine
from repro.errors import ExperimentError


def test_builtins_are_always_available():
    assert "sim" in available_engines()
    assert "analytic" in available_engines()


def test_get_engine_lazily_imports_builtins():
    engine = get_engine("sim")
    assert engine.name == "sim"
    assert get_engine("analytic").name == "analytic"


def test_get_engine_returns_singleton():
    assert get_engine("sim") is get_engine("sim")


def test_unknown_engine_lists_available():
    with pytest.raises(ExperimentError, match="sim"):
        get_engine("definitely-not-an-engine")


def test_pipeline_settings_validates_engine():
    from repro.core.experiments import PipelineSettings

    assert PipelineSettings(engine="analytic").engine == "analytic"
    with pytest.raises(ExperimentError, match="unknown engine"):
        PipelineSettings(engine="bogus")
