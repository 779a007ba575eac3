"""EXPERIMENTS.md, Table I: one test per claim row, at the printed precision."""

import numpy as np
import pytest

from repro.analysis.report import table1


@pytest.fixture(scope="module")
def pairs(paper_pipeline):
    return table1(paper_pipeline)[0]


@pytest.fixture(scope="module")
def apps(paper_pipeline):
    return paper_pipeline.app_names


def test_fftw_row_largest_and_fftw_pair_the_maximum(pairs, apps):
    row_means = {app: np.mean([pairs[(app, other)] for other in apps]) for app in apps}
    assert max(row_means, key=row_means.get) == "fftw"
    assert max(pairs, key=pairs.get) == ("fftw", "fftw")
    assert f"{pairs[('fftw', 'fftw')]:.1f}" == "72.7"


def test_milc_next_to_fftw_is_large(pairs):
    assert f"{pairs[('milc', 'fftw')]:.1f}" == "29.8"


def test_quiet_rows_stay_single_digit(pairs, apps):
    quiet = [pairs[(app, other)] for app in ("lulesh", "mcb", "amg") for other in apps]
    assert f"{max(quiet):.1f}" == "2.8"


def test_pairing_with_mcb_hurts_least(pairs, apps):
    column = {app: max(pairs[(other, app)] for other in apps) for app in apps}
    assert min(column, key=column.get) == "mcb"
    assert f"{column['mcb']:.1f}" == "0.7"
