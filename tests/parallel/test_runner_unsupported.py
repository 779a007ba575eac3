"""Model refusals (``unsupported``) through the retry machinery.

An :class:`~repro.errors.AnalyticModelError` is deterministic — the model
is declining a scenario outside its validity domain, not hitting a flake —
so the runner must classify it ``unsupported`` and go terminal on the
first attempt instead of burning the retry budget re-deriving the same
refusal.  Ordinary exceptions keep the retry-then-``exception`` path.
"""

import os

from repro.errors import AnalyticModelError, UnsupportedScenario
from repro.parallel import RetryPolicy, run_tasks


def _refuse(item):
    raise AnalyticModelError(f"utilization 0.97 at spine0 for {item}")


def _refuse_scenario(item):
    raise UnsupportedScenario(f"engine cannot model {item}")


def _flaky(marker):
    if not os.path.exists(marker):
        with open(marker, "w") as stream:
            stream.write("attempted")
        raise ValueError("flaky first attempt")
    return "recovered"


def test_model_refusal_is_unsupported_and_never_retried():
    report = run_tasks(
        _refuse,
        ["fftw"],
        keys=["impact/fftw"],
        workers=1,
        policy=RetryPolicy(max_attempts=3),
    )
    assert report.results == [None]
    assert report.transients == []  # no attempts wasted on a deterministic no
    (record,) = report.failures
    assert record.category == "unsupported"
    assert record.attempts == 1
    assert "spine0" in record.message


def test_unsupported_scenario_classifies_the_same_way():
    report = run_tasks(
        _refuse_scenario,
        ["x"],
        workers=1,
        policy=RetryPolicy(max_attempts=2),
    )
    (record,) = report.failures
    assert record.category == "unsupported"
    assert record.attempts == 1


def test_pool_path_classifies_refusals_too(tmp_path):
    report = run_tasks(
        _refuse,
        ["a", "b"],
        workers=2,
        policy=RetryPolicy(max_attempts=3),
    )
    assert [record.category for record in report.failures] == [
        "unsupported",
        "unsupported",
    ]
    assert all(record.attempts == 1 for record in report.failures)


def test_ordinary_exceptions_still_retry(tmp_path):
    marker = str(tmp_path / "marker")
    report = run_tasks(
        _flaky,
        [marker],
        workers=1,
        policy=RetryPolicy(max_attempts=2),
    )
    assert report.results == ["recovered"]
    assert [record.category for record in report.transients] == ["exception"]
