"""The one writer and the one reader of every JSON file the program keeps.

The reader turns every failure of hostile bytes into ``CorruptDocument``;
the writer honours the umask and never leaves a file half rewritten, which
these tests check on every file the program writes.
"""

import errno
import os
import stat
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jsonfile, telemetry
from repro.analysis import write_fabric_report
from repro.analysis.errors import ErrorSummary
from repro.cluster import small_test_config
from repro.core.experiments import PipelineSettings, ReproductionPipeline
from repro.core.experiments.cache import FAILURE_REPORT_NAME, JOURNAL_NAME, ShardedCache
from repro.errors import CorruptDocument
from repro.serving import ModelArtifact, ModelRegistry, save_artifact
from repro.telemetry.live import LIVE_REPORT_NAME
from repro.telemetry.report import TELEMETRY_REPORT_NAME, build_report, write_report

from .serving.conftest import make_catalog

@pytest.fixture(autouse=True)
def _clean_telemetry():
    # The telemetry-on campaign below turns the process-wide switch on.
    yield
    telemetry.disable()
    telemetry.reset()


HOSTILE = [
    b"[" * 100_000,  # nesting past the recursion limit
    b'{"a": ' + b"9" * 5000 + b"}",  # an integer past the digit limit
    b"\xff\xfe\x00{}",  # not UTF-8
    b'{"a": "\xed\xa0\x80"}',  # a lone surrogate
    b"",
    b"{",
]


@settings(max_examples=200, deadline=None)
@given(raw=st.one_of(st.binary(max_size=200), st.sampled_from(HOSTILE)))
def test_parse_raises_only_corrupt_document(raw):
    try:
        jsonfile.parse(raw)
    except CorruptDocument:
        pass


@settings(max_examples=100, deadline=None)
@given(raw=st.one_of(st.binary(max_size=200), st.sampled_from(HOSTILE)))
def test_read_raises_only_corrupt_document(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("read") / "document.json"
    path.write_bytes(raw)
    try:
        jsonfile.read(path)
    except CorruptDocument as exc:
        assert "(truncated or corrupt) is not valid JSON" in str(exc)


@pytest.mark.parametrize("name", ["missing.json", "", "nul\x00byte.json"])
def test_read_of_an_unreadable_path_is_corrupt_document(tmp_path, name):
    with pytest.raises(CorruptDocument, match="cannot read"):
        jsonfile.read(tmp_path / name)


def test_write_text_replaces_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "deep" / "doc.json"
    jsonfile.write_text(path, "old\n")
    jsonfile.write_text(path, "new\n", durable=True)
    assert path.read_text() == "new\n"
    assert sorted(p.name for p in path.parent.iterdir()) == ["doc.json"]


def test_seal_is_the_sha256_of_the_utf8_text():
    assert jsonfile.seal("µ") == jsonfile.seal("µ".encode("utf-8"))
    assert len(jsonfile.seal(b"")) == 64


# ----------------------------------------------------------------------
# Every file the program writes
# ----------------------------------------------------------------------
def _pipeline(cache):
    return ReproductionPipeline(
        settings=PipelineSettings(profile="quick", seed=0, engine="analytic"),
        machine_config=small_test_config(seed=0),
        cache_path=cache,
    )


def _artifact():
    observations, degradations, signatures, cal = make_catalog()
    return ModelArtifact(observations, degradations, signatures, cal)


def _comparison():
    summary = ErrorSummary(0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 4)
    block = {"Queue": {"summary": summary, "within_10pct": 1.0, "per_pair": {"a|b": 2.0}}}
    return {
        "baseline_tag": "single",
        "fabric_tag": "fabric",
        "models": ["Queue"],
        "baseline": block,
        "fabric": block,
        "delta": {"Queue": {"median": 0.0}},
    }


def test_every_written_file_follows_the_umask(tmp_path):
    previous = os.umask(0o022)
    try:
        cache = tmp_path / "cache"
        telemetry.enable()
        _pipeline(cache).ensure_products(["calibration"])
        journaled = ShardedCache(tmp_path / "journaled")
        journaled.put("impact/x", 1.0, flush=False)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(_artifact(), version="v1")
        registry.promote("v1")
        written = [
            cache / "analytic_calibration.json",
            cache / FAILURE_REPORT_NAME,
            cache / TELEMETRY_REPORT_NAME,
            cache / LIVE_REPORT_NAME,
            tmp_path / "journaled" / JOURNAL_NAME,
            save_artifact(_artifact(), tmp_path / "model.json"),
            registry.artifact_path("v1"),
            registry.pointer_path,
            write_fabric_report(_comparison(), tmp_path / "fabric.json"),
        ]
    finally:
        os.umask(previous)
    modes = {path.name: oct(stat.S_IMODE(path.stat().st_mode)) for path in written}
    assert modes == {path.name: "0o644" for path in written}


_LIMITED_WRITE = textwrap.dedent(
    """
    import resource, signal, sys
    from pathlib import Path

    from repro.cluster import small_test_config
    from repro.core.experiments import PipelineSettings, ReproductionPipeline
    from repro.telemetry.report import write_report

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    cache = Path(sys.argv[2])
    pipeline = ReproductionPipeline(
        settings=PipelineSettings(profile="quick", seed=0, engine="analytic"),
        machine_config=small_test_config(seed=0),
        cache_path=cache,
    )
    resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
    try:
        if sys.argv[1] == "failure_report":
            pipeline.ensure_products(["calibration"])  # cached: rewrites the report
        else:
            write_report(cache / "telemetry.json", {"version": 1, "pad": "x" * 1024})
    except OSError as exc:
        print(exc.errno)
    """
)


@pytest.mark.parametrize(
    "which, name", [("failure_report", FAILURE_REPORT_NAME), ("telemetry", TELEMETRY_REPORT_NAME)]
)
def test_a_report_cut_short_by_a_file_size_limit_keeps_its_old_bytes(tmp_path, which, name):
    cache = tmp_path / "cache"
    _pipeline(cache).ensure_products(["calibration"])
    write_report(cache / TELEMETRY_REPORT_NAME, build_report({}, []))
    before = (cache / name).read_bytes()
    assert len(before) > 64
    child = subprocess.run(
        [sys.executable, "-c", _LIMITED_WRITE, which, str(cache)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == str(errno.EFBIG)  # the write was refused
    assert (cache / name).read_bytes() == before
    assert not list(cache.glob("*.tmp"))
