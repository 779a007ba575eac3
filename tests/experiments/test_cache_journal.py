"""The campaign journal: ``put(..., flush=False)``, ``flush()`` and replay,
plus loading hostile bytes from shards, legacy files and journals."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments.cache import JOURNAL_NAME, ShardedCache
from repro.faults import set_fault_plan


@pytest.fixture(autouse=True)
def _no_fault_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


PRODUCTS = {
    "impact/fftw": {"mean": 1.5, "histogram": {"edges": [0.0, 2.5e-06], "counts": [3, 1]}},
    "impact/mcb": {"mean": 2.5, "label": "Größe in µs"},
    "baseline/fftw": 0.25,
    "baseline/mcb": 0.1,
    "pair/fftw/mcb": 1.0625,
    "impact/special": {"nan": float("nan"), "inf": float("inf"), "big": 2**70, "neg": -0.0},
}


def _shards(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.glob("*.json"))}


def _journaled(directory, products=PRODUCTS):
    cache = ShardedCache(directory)
    for key, value in products.items():
        cache.put(key, value, flush=False)
    return cache


def _direct(directory, products=PRODUCTS):
    cache = ShardedCache(directory)
    for key, value in products.items():
        cache.put(key, value)
    return cache


def _checksummed(text):
    return hashlib.sha256(text).hexdigest().encode() + b" " + text


def _line(key, value):
    return _checksummed(json.dumps([key, value], sort_keys=True).encode())


def test_journaled_puts_write_one_line_each_and_no_shard(tmp_path):
    cache = _journaled(tmp_path)
    assert _shards(tmp_path) == {}
    lines = (tmp_path / JOURNAL_NAME).read_bytes().splitlines()
    assert lines == [_line(key, value) for key, value in PRODUCTS.items()]
    assert cache["pair/fftw/mcb"] == 1.0625


def test_flush_writes_the_bytes_of_immediate_puts_and_deletes_the_journal(tmp_path):
    _journaled(tmp_path / "journaled").flush()
    _direct(tmp_path / "direct")
    assert not (tmp_path / "journaled" / JOURNAL_NAME).exists()
    assert set(_shards(tmp_path / "direct")) == {"impact.json", "baseline.json", "pair.json"}
    assert _shards(tmp_path / "journaled") == _shards(tmp_path / "direct")


def test_a_dropped_cache_replays_its_journal_on_reopen(tmp_path):
    cache = _journaled(tmp_path / "journaled")
    del cache  # no flush(): what a killed campaign leaves
    reopened = ShardedCache(tmp_path / "journaled")
    assert reopened.quarantined == []
    assert json.dumps(reopened.snapshot(), sort_keys=True) == json.dumps(PRODUCTS, sort_keys=True)
    assert not (tmp_path / "journaled" / JOURNAL_NAME).exists()
    _direct(tmp_path / "direct")
    assert _shards(tmp_path / "journaled") == _shards(tmp_path / "direct")


def test_replay_merges_over_shards_written_by_earlier_flushes(tmp_path):
    first = dict(list(PRODUCTS.items())[:3])
    rest = dict(list(PRODUCTS.items())[3:])
    cache = _journaled(tmp_path, first)
    cache.flush()
    for key, value in rest.items():
        cache.put(key, value, flush=False)
    reopened = ShardedCache(tmp_path)
    assert json.dumps(reopened.snapshot(), sort_keys=True) == json.dumps(PRODUCTS, sort_keys=True)
    _direct(tmp_path / "direct")
    assert _shards(tmp_path) == _shards(tmp_path / "direct")


def test_a_torn_last_line_loses_only_its_product(tmp_path):
    _journaled(tmp_path)
    journal = tmp_path / JOURNAL_NAME
    journal.write_bytes(journal.read_bytes()[:-20])  # the crash tore the last write
    reopened = ShardedCache(tmp_path)
    last = list(PRODUCTS)[-1]
    assert set(PRODUCTS) - set(reopened) == {last}
    assert not journal.exists()
    assert reopened.quarantined == []


def test_a_corrupt_middle_line_loses_only_its_product(tmp_path):
    _journaled(tmp_path)
    journal = tmp_path / JOURNAL_NAME
    lines = journal.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"2.5", b"9.5")  # bit rot under the checksum
    journal.write_bytes(b"\n".join(lines))
    reopened = ShardedCache(tmp_path)
    assert set(PRODUCTS) - set(reopened) == {"impact/mcb"}


def test_an_immediate_put_folds_the_journal_into_the_shards(tmp_path):
    cache = _journaled(tmp_path)
    cache.put("baseline/amg", 0.5)
    assert not (tmp_path / JOURNAL_NAME).exists()
    assert len(ShardedCache(tmp_path)) == len(PRODUCTS) + 1


def test_a_later_journal_line_overrides_an_earlier_one(tmp_path):
    cache = ShardedCache(tmp_path)
    cache.put("baseline/fftw", 0.25, flush=False)
    cache.put("baseline/fftw", 0.5, flush=False)
    assert ShardedCache(tmp_path)["baseline/fftw"] == 0.5


def test_memory_only_cache_journals_nothing():
    cache = ShardedCache(None)
    cache.put("baseline/fftw", 0.25, flush=False)
    cache.flush()
    assert cache["baseline/fftw"] == 0.25


# ----------------------------------------------------------------------
# Hostile bytes never raise
# ----------------------------------------------------------------------
HOSTILE = [
    b"[" * 200_000,  # nesting deeper than the recursion limit
    b'{"impact/x": ' + b"9" * 5000 + b"}",  # past the int-digit limit
    b'{"__shard_format__": 2, "products": {"impact/x": ' + b"7" * 5000 + b'}, "sha256": ""}',
    b"\xff\xfe{}",  # not UTF-8
    b"",
    b"null",
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
hostile_bytes = st.one_of(
    st.binary(max_size=300),
    st.sampled_from(HOSTILE),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.dictionaries(st.text(min_size=200, max_size=400), json_values, max_size=2).map(
        lambda products: json.dumps(products).encode()  # keys past the file-name limit
    ),
    st.dictionaries(st.sampled_from(["impact/a", "impact/b"]), json_values, max_size=3).map(
        lambda products: json.dumps(
            {"__shard_format__": 2, "products": products, "sha256": "0" * 64}
        ).encode()
    ),
)


def _healthy(directory):
    cache = ShardedCache(directory)
    cache.put("baseline/fftw", 0.25)


@settings(max_examples=150, deadline=None)
@given(raw=hostile_bytes)
def test_a_hostile_shard_loads_or_is_quarantined(tmp_path_factory, raw):
    directory = tmp_path_factory.mktemp("shard")
    _healthy(directory)
    (directory / "impact.json").write_bytes(raw)
    cache = ShardedCache(directory)
    assert cache["baseline/fftw"] == 0.25
    if cache.quarantined:
        assert cache.quarantined == [directory / "impact.json.corrupt"]
        assert (directory / "impact.json.corrupt").read_bytes() == raw
        assert cache.keys() == ["baseline/fftw"]  # its keys are pending
    else:  # only a JSON object loads: a bare format-1 mapping
        assert isinstance(json.loads(raw), dict)


@settings(max_examples=150, deadline=None)
@given(raw=hostile_bytes)
def test_a_hostile_legacy_file_never_raises(tmp_path_factory, raw):
    directory = tmp_path_factory.mktemp("legacy")
    legacy = directory / "legacy.json"
    legacy.write_bytes(raw)
    cache = ShardedCache(directory / "shards", legacy_path=legacy)
    assert ShardedCache(directory / "shards").snapshot().keys() == cache.snapshot().keys()


KEYS = ["impact/a", "impact/b", "baseline/a", "pair/a/b"]
record_lines = st.tuples(st.sampled_from(KEYS), json_values).map(lambda kv: ("ok", kv))
hostile_lines = st.one_of(
    st.binary(max_size=120).map(lambda raw: ("bad", raw)),
    st.sampled_from(HOSTILE).map(lambda raw: ("bad", raw)),
    st.sampled_from(HOSTILE).map(lambda raw: ("bad", _checksummed(raw))),
    st.tuples(st.sampled_from(KEYS), json_values, st.integers(min_value=1, max_value=40)).map(
        lambda kvn: ("bad", _line(kvn[0], kvn[1])[: -kvn[2]])  # torn
    ),
    st.tuples(st.sampled_from(KEYS), json_values).map(
        lambda kv: ("bad", b"0" * 64 + _line(*kv)[64:])  # wrong checksum
    ),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(st.one_of(record_lines, hostile_lines), max_size=8), tail=st.booleans())
def test_a_journal_replays_exactly_its_verified_lines(tmp_path_factory, lines, tail):
    directory = tmp_path_factory.mktemp("journal")
    _healthy(directory)
    expected = {"baseline/fftw": 0.25}
    raw = []
    for kind, item in lines:
        if kind == "ok":
            expected[item[0]] = item[1]
            raw.append(_line(*item))
        else:
            raw.append(item)
    (directory / JOURNAL_NAME).write_bytes(b"\n".join(raw) + (b"\n" if tail else b""))
    cache = ShardedCache(directory)
    assert cache.snapshot() == expected
    assert cache.quarantined == []
    assert not (directory / JOURNAL_NAME).exists()
    assert ShardedCache(directory).snapshot() == expected
