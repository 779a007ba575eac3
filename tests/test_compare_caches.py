"""scripts/compare_caches.py: the one "which files are shards" check CI uses."""

import runpy
from pathlib import Path

import pytest

from repro.core.experiments.cache import JOURNAL_NAME, RESERVED_FILES, ShardedCache

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_caches.py"


@pytest.fixture(scope="module")
def compare():
    return runpy.run_path(str(SCRIPT))["main"]


def _cache(directory):
    cache = ShardedCache(directory)
    cache.put("impact/fftw", {"mean": 1.5})
    cache.put("baseline/fftw", 0.25)
    return directory


def test_identical_shards_pass_whatever_the_reports_hold(tmp_path, compare):
    first, second = _cache(tmp_path / "a"), _cache(tmp_path / "b")
    for name in RESERVED_FILES:
        (first / name).write_text('{"run": 1}')
    assert compare([str(first), str(second)]) == 0


def test_missing_or_differing_shards_fail(tmp_path, compare, capsys):
    first, second = _cache(tmp_path / "a"), _cache(tmp_path / "b")
    ShardedCache(second).put("baseline/fftw", 0.5)
    (first / "impact.json").unlink()
    assert compare([str(first), str(second)]) == 1
    err = capsys.readouterr().err
    assert "impact.json: missing from" in err and "baseline.json: differs" in err


def test_no_shards_at_all_fails(tmp_path, compare):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare([str(tmp_path / "a"), str(tmp_path / "b")]) == 1


def test_a_side_with_a_journal_fails_as_unfinished(tmp_path, compare, capsys):
    first, second = _cache(tmp_path / "a"), _cache(tmp_path / "b")
    ShardedCache(second).put("pair/fftw/mcb", 1.0625, flush=False)  # killed before flush
    assert compare([str(first), str(second)]) == 1
    err = capsys.readouterr().err
    assert f"{second}: {JOURNAL_NAME} present, campaign did not finish" in err
