"""The answer table: every served answer is the engine's, byte for byte.

Each served version scores every (app, co-runner, model) triple once when
it loads; requests read that table.  These tests hold the table to
``engine.predict_batch`` on the paper artifact and on app names that need
JSON escaping, pin the error messages of requests the table cannot answer,
and follow a hot reload to the new version's table.
"""

import dataclasses
import http.client
import json
import random
from urllib.parse import urlencode

import pytest

from repro.serving import ModelArtifact, ModelRegistry, PredictionServer

from .conftest import make_catalog

#: App names that need JSON escaping: a quote, a backslash, a non-ASCII letter.
ESCAPED_APPS = ('quo"te', "back\\slash", "café")


def _artifact(apps=("alpha", "beta"), seed=0):
    observations, degradations, signatures, cal = make_catalog(apps=apps, seed=seed)
    return ModelArtifact(
        observations=observations,
        degradations=degradations,
        signatures=signatures,
        calibration=cal,
    )


def _serve(artifact=None, **kwargs):
    server = PredictionServer(artifact, port=0, **kwargs)
    server.serve_background()
    return server


def _stop(server):
    server.shutdown()
    server.server_close()


def _call(server, method, path, body=None):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_port, timeout=30
    )
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _predict(server, app, other, model=None):
    query = {"app": app, "other": other}
    if model is not None:
        query["model"] = model
    return _call(server, "GET", "/predict?" + urlencode(query))


def _batch(server, requests):
    return _call(
        server, "POST", "/predict/batch", json.dumps({"requests": requests}).encode()
    )


def _batch_bytes(version, predictions):
    document = {
        "version": version,
        "predictions": [
            {"app": p.app, "other": p.other, "model": p.model, "predicted": p.predicted}
            for p in predictions
        ],
    }
    return json.dumps(document, sort_keys=True).encode("utf-8")


@pytest.fixture(params=["paper", "escaped-names"])
def served(request):
    if request.param == "paper":
        artifact = request.getfixturevalue("paper_pipeline").model_artifact()
    else:
        artifact = _artifact(ESCAPED_APPS)
    server = _serve(artifact)
    yield server
    _stop(server)


@pytest.fixture()
def server():
    server = _serve(_artifact())
    yield server
    _stop(server)


# ----------------------------------------------------------------------
# Answers equal the engine's
# ----------------------------------------------------------------------
def test_table_holds_every_triple_the_engine_answers(served):
    engine = served.engine
    apps = sorted(engine.signatures)
    triples = [(a, o, m) for m in engine.model_names for a in apps for o in apps]
    expected = engine.predict_batch(triples)
    assert len(served.state.answers) == len(triples)
    for triple, prediction in zip(triples, expected):
        assert served.state.answers[triple][0] == prediction


def test_predict_answers_equal_predict_batch(served):
    engine = served.engine
    version = served.state.version
    apps = sorted(engine.signatures)
    for app in apps:
        for other in apps:
            status, body = _predict(served, app, other)
            assert status == 200
            expected = engine.predict_batch(
                [(app, other, model) for model in engine.model_names]
            )
            document = {
                "app": app,
                "other": other,
                "version": version,
                "predictions": {p.model: p.predicted for p in expected},
            }
            assert body == json.dumps(document, sort_keys=True).encode("utf-8")
        status, body = _predict(served, app, apps[0], model="Queue")
        assert status == 200
        assert json.loads(body)["predictions"] == {
            "Queue": engine.predict_batch([(app, apps[0], "Queue")])[0].predicted
        }


def test_batch_bodies_equal_json_dumps_of_predict_batch(served):
    engine = served.engine
    version = served.state.version
    apps = sorted(engine.signatures)
    triples = [(a, o, m) for a in apps for o in apps for m in engine.model_names]
    random.Random(0).shuffle(triples)
    status, body = _batch(served, [list(triple) for triple in triples])
    assert status == 200
    assert body == _batch_bytes(version, engine.predict_batch(triples))

    pairs = [(a, o) for a in apps for o in apps][::-1]
    status, body = _batch(served, [[a, o, None] for a, o in pairs[:5]] + [list(pairs[5])])
    assert status == 200
    expanded = [(a, o, m) for a, o in pairs[:6] for m in engine.model_names]
    assert body == _batch_bytes(version, engine.predict_batch(expanded))

    status, body = _batch(served, [])
    assert status == 200
    assert body == _batch_bytes(version, [])


def test_requests_are_answered_without_the_engine(server, monkeypatch):
    expected = _predict(server, "alpha", "beta")

    def refuse(*_args, **_kwargs):
        raise AssertionError("a tabled triple reached the engine")

    monkeypatch.setattr(server.state.engine, "predict_batch", refuse)
    assert _predict(server, "alpha", "beta") == expected
    status, _body = _batch(server, [["alpha", "beta"], ["beta", "alpha", "Queue"]])
    assert status == 200


# ----------------------------------------------------------------------
# Requests the table cannot answer keep the engine's errors
# ----------------------------------------------------------------------
#: Each request's 400 message, as the engine gives it: unknown app, unknown
#: co-runner and unknown model, alone and in the precedence a mixed batch
#: resolves them in.
ENGINE_ERRORS = [
    ([["ghost", "beta", "Queue"]], "no degradation table for app 'ghost'"),
    ([["alpha", "ghost", "Queue"]], "no impact signature recorded for 'ghost'"),
    ([["alpha", "beta", "Oracle"]], "unknown model 'Oracle'"),
    (
        [["ghost", "beta", "Queue"], ["alpha", "beta", "Oracle"]],
        "no degradation table for app 'ghost'",
    ),
    (
        [["alpha", "ghost", "Queue"], ["ghost", "beta", "Queue"]],
        "no impact signature recorded for 'ghost'",
    ),
    (
        [["alpha", "beta", "Oracle"], ["ghost", "beta", "Queue"]],
        "unknown model 'Oracle'",
    ),
    (
        [["alpha", "beta", "AverageLT"], ["alpha", "ghost", "AverageLT"]],
        "no impact signature recorded for 'ghost'",
    ),
]


@pytest.mark.parametrize("requests, message", ENGINE_ERRORS)
def test_batch_errors_keep_the_engines_messages(server, requests, message):
    status, body = _batch(server, requests)
    assert status == 400
    assert json.loads(body) == {"error": message}
    if len(requests) == 1:
        status, body = _predict(server, *requests[0])
        assert status == 400
        assert json.loads(body) == {"error": message}


def test_triples_the_engine_refuses_stay_out_of_the_table():
    artifact = _artifact()
    # Without a utilization estimate, the Queue model cannot answer for
    # beta as a co-runner; the other models still can.
    artifact.signatures["beta"] = dataclasses.replace(
        artifact.signatures["beta"], utilization=float("nan")
    )
    server = _serve(artifact)
    try:
        engine = server.engine
        assert len(server.state.answers) == 2 * 2 * 4 - 2
        status, body = _predict(server, "alpha", "beta", model="Queue")
        assert (status, json.loads(body)) == (
            400,
            {"error": "co-runner signature lacks a utilization estimate"},
        )
        status, body = _batch(server, [["alpha", "beta"]])
        assert status == 400
        status, body = _batch(server, [["alpha", "beta", "PDFLT"], ["beta", "alpha"]])
        assert status == 200
        expected = [("alpha", "beta", "PDFLT")] + [
            ("beta", "alpha", model) for model in engine.model_names
        ]
        assert body == _batch_bytes("unversioned", engine.predict_batch(expected))
    finally:
        _stop(server)


# ----------------------------------------------------------------------
# Hot reload swaps the table with the version
# ----------------------------------------------------------------------
def test_hot_reload_answers_from_the_new_versions_table(tmp_path, monkeypatch):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(_artifact(seed=0), version="v1")
    registry.publish(_artifact(seed=1), version="v2")
    registry.promote("v1")
    server = _serve(registry=registry, reload_interval=3600.0)
    try:
        _status, v1_body = _batch(server, [["alpha", "beta"]])
        registry.promote("v2")
        assert server.reload_now()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a tabled triple reached the engine")

        monkeypatch.setattr(server.state.engine, "predict_batch", refuse)
        v2_engine = registry.load("v2").engine()
        triples = [("alpha", "beta", model) for model in v2_engine.model_names]
        status, body = _batch(server, [["alpha", "beta"]])
        assert status == 200
        assert body == _batch_bytes("v2", v2_engine.predict_batch(triples))
        assert body != v1_body
        status, body = _predict(server, "alpha", "beta")
        assert status == 200
        assert json.loads(body)["predictions"] == {
            p.model: p.predicted for p in v2_engine.predict_batch(triples)
        }
    finally:
        _stop(server)
