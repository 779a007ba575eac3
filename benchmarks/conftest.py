"""Shared benchmark fixtures.

The benchmark suite regenerates every table and figure of the paper's
evaluation, plus the ablations, from the committed paper campaign
(``results/paper_cache.json``, 330 sim products).  The campaign is read
into memory once and no cache directory is written: the figure
benchmarks simulate nothing, and the ablations run their own small
simulations.  Each benchmark times its artifact's assembly and
prints/saves the artifact.  Other profiles, engines and worker counts
are ``repro --profile/--engine/--cache … campaign|report|fig*``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.experiments import PipelineSettings, ReproductionPipeline

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CACHE = REPO_ROOT / "results" / "paper_cache.json"
ARTIFACTS = REPO_ROOT / "results" / "artifacts"


@pytest.fixture(scope="session")
def pipeline() -> ReproductionPipeline:
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="paper"), legacy_cache=PAPER_CACHE
    )
    assert not pipeline.pending_keys(), "the paper cache must hold every product"
    return pipeline


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    return ARTIFACTS


def save_artifact(directory: Path, name: str, text: str) -> None:
    """Write an artifact file and echo it to the terminal."""
    path = directory / name
    path.write_text(text + "\n")
    print(f"\n{text}\n[artifact saved to {path}]")
