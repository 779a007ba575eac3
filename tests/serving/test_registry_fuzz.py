"""Hostile registry pointers and artifact payloads fail with typed errors.

The registry's ``CURRENT`` pointer and a version's checksummed payload are
trust boundaries: whatever bytes they hold, the registry verbs and
``load_artifact(...).engine()`` raise only :mod:`repro.errors` types, and a
serving registry whose pointer turns hostile keeps answering.
"""

import json
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import jsonfile
from repro.errors import ArtifactError, RegistryError, ReproError
from repro.serving import (
    ARTIFACT_FORMAT,
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    load_artifact,
)

from .conftest import make_catalog

DEEP = b"[" * 100_000

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
names = st.one_of(
    st.sampled_from(["v1", "v2", "v3", "", "../v1", "a" * 150]), json_values
)
pointer_bytes = st.one_of(
    st.binary(max_size=80),
    st.sampled_from(
        [
            DEEP,
            b'{"version": ' + b"9" * 5000 + b"}",
            b'{"version": "v1", "previous": ' + b"7" * 5000 + b"}",
            b'{"version": "\xff\xfe"}',
            b"\xed\xa0\x80",
        ]
    ),
    json_values.map(lambda value: json.dumps(value).encode()),
    st.fixed_dictionaries({}, optional={"version": names, "previous": names}).map(
        lambda record: json.dumps(record).encode()
    ),
)


def _artifact(seed=0):
    observations, degradations, signatures, cal = make_catalog(seed=seed)
    return ModelArtifact(observations, degradations, signatures, cal, {"seed": seed})


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("fuzz") / "registry")
    registry.publish(_artifact(0), version="v1")
    registry.publish(_artifact(1), version="v2")
    return registry


VERBS = {
    "current_version": lambda registry: registry.current_version(),
    "load_current": lambda registry: registry.load_current(),
    "describe": lambda registry: json.dumps(registry.describe()),
    "promote": lambda registry: registry.promote("v1"),
    "rollback": lambda registry: registry.rollback(),
}


@settings(max_examples=150, deadline=None)
@given(raw=pointer_bytes, verb=st.sampled_from(sorted(VERBS)))
def test_a_hostile_pointer_raises_only_typed_errors(registry, raw, verb):
    registry.pointer_path.write_bytes(raw)
    try:
        VERBS[verb](registry)
    except ReproError:
        pass


def test_promote_over_an_unreadable_pointer_writes_a_fresh_one(registry):
    registry.pointer_path.write_bytes(DEEP)
    with pytest.raises(RegistryError, match="pointer"):
        registry.current_version()
    registry.promote("v2")
    assert json.loads(registry.pointer_path.read_text()) == {
        "version": "v2",
        "previous": None,
    }


# ----------------------------------------------------------------------
# Checksummed payloads whose sections hold the wrong JSON
# ----------------------------------------------------------------------
VALID = _artifact().to_payload()


def _leaf_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _leaf_paths(child, prefix + (key,))


# Histogram bins outnumber every other leaf; draw them as often as the rest.
PATHS = [path for path in _leaf_paths(VALID) if path]
HISTOGRAM_PATHS = [path for path in PATHS if "histogram" in path]
OTHER_PATHS = [path for path in PATHS if "histogram" not in path]


def _replaced(payload, path, value):
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


payloads = st.one_of(
    st.fixed_dictionaries(
        {
            "observations": json_values,
            "degradations": json_values,
            "signatures": json_values,
        },
        optional={"calibration": json_values, "metadata": json_values},
    ),
    st.builds(
        _replaced,
        st.just(VALID),
        st.sampled_from(OTHER_PATHS) | st.sampled_from(HISTOGRAM_PATHS),
        json_values,
    ),
)


def _write(path, payload):
    document = {
        "__artifact_format__": ARTIFACT_FORMAT,
        "sha256": jsonfile.seal(json.dumps(payload, sort_keys=True)),
        "payload": payload,
    }
    path.write_text(json.dumps(document))
    return path


@settings(max_examples=200, deadline=None)
@given(payload=payloads)
def test_a_checksummed_payload_of_any_shape_raises_only_typed_errors(
    tmp_path_factory, payload
):
    path = _write(tmp_path_factory.mktemp("payload") / "model.json", payload)
    try:
        load_artifact(path).engine()
    except ReproError:
        pass


@pytest.mark.parametrize(
    "degradations", [[1], {"alpha": [1]}, {"alpha": {"P1xM1xB2.5e+05": "x"}}]
)
def test_malformed_degradations_raise_artifact_error(tmp_path, degradations):
    payload = dict(VALID, degradations=degradations)
    with pytest.raises(ArtifactError, match="malformed"):
        load_artifact(_write(tmp_path / "model.json", payload))


# ----------------------------------------------------------------------
# A serving registry whose pointer turns hostile
# ----------------------------------------------------------------------
def _get(server, path):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_a_hostile_pointer_never_stops_hot_reload(tmp_path):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(_artifact(0), version="v1")
    registry.publish(_artifact(1), version="v2")
    registry.promote("v1")
    server = PredictionServer(registry=registry, port=0, reload_interval=0.02)
    server.serve_background()
    try:
        for raw in (DEEP, b'{"version": ' + b"9" * 5000 + b"}", b"\xff"):
            failures = server.reload_failures
            registry.pointer_path.write_bytes(raw)
            _until(lambda: server.reload_failures > failures)
            health = _get(server, "/healthz")
            assert health["version"] == "v1"
            assert health["last_reload_error"]
            assert _get(server, "/predict?app=alpha&other=beta")["predictions"]
        assert server._watcher.is_alive()
        registry.promote("v2")  # heals the pointer
        _until(lambda: server.state.version == "v2")
        assert _get(server, "/healthz")["last_reload_error"] is None
    finally:
        server.shutdown()
        server.server_close()
