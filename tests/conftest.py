"""Shared test configuration.

Disables hypothesis' wall-clock deadline (simulation-heavy tests have noisy
timings on shared machines) and registers a small default profile.  The
``paper_pipeline`` fixture serves the committed paper campaign.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from repro.core.experiments import PipelineSettings, ReproductionPipeline

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


PAPER_CACHE = Path(__file__).resolve().parent.parent / "results" / "paper_cache.json"


@pytest.fixture(scope="session")
def paper_cache() -> Path:
    """The committed 330-product sim campaign behind EXPERIMENTS.md."""
    return PAPER_CACHE


@pytest.fixture(scope="session")
def paper_pipeline(paper_cache):
    """The paper campaign read into memory: no cache directory, so nothing
    simulates and nothing is written."""
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper"), legacy_cache=paper_cache
    )
    assert not pipeline.pending_keys(), "the paper cache must hold every product"
    return pipeline
