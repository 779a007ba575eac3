"""The prediction server: endpoint contract, errors, and serving metrics."""

import json
import urllib.error
import urllib.request

import pytest

from repro import telemetry
from repro.serving import ModelArtifact, PredictionServer

from .conftest import make_catalog


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture()
def server():
    observations, degradations, signatures, cal = make_catalog(
        apps=("alpha", "beta"), configs=5
    )
    artifact = ModelArtifact(
        observations=observations,
        degradations=degradations,
        signatures=signatures,
        calibration=cal,
        metadata={"engine": "test"},
    )
    instance = PredictionServer(artifact, port=0)
    instance.serve_background()
    yield instance
    instance.shutdown()
    instance.server_close()


def _urlopen(request):
    """``urlopen``, but an error reply's body is read (into ``body``) and
    its connection closed before the ``HTTPError`` propagates."""
    try:
        return urllib.request.urlopen(request)
    except urllib.error.HTTPError as exc:
        with exc:
            exc.body = exc.read()
        raise


def _get(server, path):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    with _urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(server, path, document):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with _urlopen(request) as response:
        return response.status, json.loads(response.read())


def _error_of(exc):
    return json.loads(exc.body)["error"]


# ----------------------------------------------------------------------
# Happy paths
# ----------------------------------------------------------------------
def test_healthz_reports_models_and_metadata(server):
    status, document = _get(server, "/healthz")
    assert status == 200
    assert document["status"] == "ok"
    assert document["apps"] == ["alpha", "beta"]
    assert "Queue" in document["models"]
    assert document["metadata"] == {"engine": "test"}
    assert document["uptime_seconds"] >= 0


def test_models_endpoint(server):
    status, document = _get(server, "/models")
    assert status == 200
    assert document["models"] == ["AverageLT", "AverageStDevLT", "PDFLT", "Queue"]
    assert document["catalog_size"] == 5


def test_predict_get_all_models(server):
    status, document = _get(server, "/predict?app=alpha&other=beta")
    assert status == 200
    assert set(document["predictions"]) == set(server.engine.model_names)
    assert document["predictions"]["Queue"] == server.engine.predict(
        "alpha", "beta", "Queue"
    )


def test_predict_get_single_model(server):
    status, document = _get(server, "/predict?app=beta&other=alpha&model=PDFLT")
    assert status == 200
    assert list(document["predictions"]) == ["PDFLT"]


def test_predict_post(server):
    status, document = _post(
        server, "/predict", {"app": "alpha", "other": "beta", "model": "AverageLT"}
    )
    assert status == 200
    assert document["predictions"]["AverageLT"] == server.engine.predict(
        "alpha", "beta", "AverageLT"
    )


def test_predict_batch_matches_scalar(server):
    requests = [
        [app, other, model]
        for app in ("alpha", "beta")
        for other in ("alpha", "beta")
        for model in server.engine.model_names
    ]
    status, document = _post(server, "/predict/batch", {"requests": requests})
    assert status == 200
    assert len(document["predictions"]) == len(requests)
    for entry in document["predictions"]:
        assert entry["predicted"] == server.engine.predict(
            entry["app"], entry["other"], entry["model"]
        )


# ----------------------------------------------------------------------
# Error contract
# ----------------------------------------------------------------------
def test_unknown_path_is_404(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/nope")
    assert excinfo.value.code == 404
    assert "unknown path" in _error_of(excinfo.value)


def test_unknown_app_is_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/predict?app=ghost&other=beta")
    assert excinfo.value.code == 400
    assert "ghost" in _error_of(excinfo.value)


def test_unknown_model_is_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/predict?app=alpha&other=beta&model=Oracle")
    assert excinfo.value.code == 400
    assert "Oracle" in _error_of(excinfo.value)


def test_missing_fields_are_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/predict?app=alpha")
    assert excinfo.value.code == 400


def test_batch_with_malformed_body_is_400(server):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/predict/batch", {"requests": [["alpha"]]})
    assert excinfo.value.code == 400
    assert "[app, other, model]" in _error_of(excinfo.value)


def test_batch_pair_entry_expands_to_all_models(server):
    # A 2-tuple (or null model) means "all models", like /predict.
    status, document = _post(server, "/predict/batch", {"requests": [["alpha", "beta"]]})
    assert status == 200
    answered = {(p["model"]): p["predicted"] for p in document["predictions"]}
    assert sorted(answered) == server.engine.model_names
    for model, predicted in answered.items():
        assert predicted == server.engine.predict("alpha", "beta", model)


def test_batch_null_model_matches_explicit_triples(server):
    status, with_null = _post(
        server, "/predict/batch", {"requests": [["beta", "alpha", None]]}
    )
    assert status == 200
    _, explicit = _post(
        server,
        "/predict/batch",
        {"requests": [["beta", "alpha", m] for m in server.engine.model_names]},
    )
    assert with_null["predictions"] == explicit["predictions"]


def test_malformed_content_length_is_400_not_crash(server):
    url = f"http://127.0.0.1:{server.server_port}/predict/batch"
    request = urllib.request.Request(
        url, data=b'{"requests": []}', method="POST"
    )
    # urllib would set a correct Content-Length; sabotage it post-hoc.
    request.add_unredirected_header("Content-Length", "not-a-number")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _urlopen(request)
    assert excinfo.value.code == 400
    assert "Content-Length" in _error_of(excinfo.value)
    # The handler thread survived; the server still answers.
    status, _ = _get(server, "/healthz")
    assert status == 200


def test_batch_with_non_json_body_is_400(server):
    url = f"http://127.0.0.1:{server.server_port}/predict/batch"
    request = urllib.request.Request(url, data=b"not json", method="POST")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _urlopen(request)
    assert excinfo.value.code == 400


def test_server_survives_bad_requests(server):
    with pytest.raises(urllib.error.HTTPError):
        _get(server, "/predict?app=ghost&other=beta")
    status, _ = _get(server, "/healthz")
    assert status == 200


# ----------------------------------------------------------------------
# Serving metrics
# ----------------------------------------------------------------------
def test_requests_are_counted_when_telemetry_enabled(server):
    telemetry.enable()
    _get(server, "/healthz")
    _get(server, "/predict?app=alpha&other=beta")
    _post(server, "/predict/batch", {"requests": [["alpha", "beta", "Queue"]]})
    registry = telemetry.registry()
    assert (
        registry.counter_value("serving.requests", endpoint="/healthz", status=200)
        == 1.0
    )
    assert (
        registry.counter_value("serving.requests", endpoint="/predict", status=200)
        == 1.0
    )
    assert (
        registry.counter_value(
            "serving.requests", endpoint="/predict/batch", status=200
        )
        == 1.0
    )
    assert registry.counter_value("serving.predictions") == 1.0
    histogram = registry.histogram_state(
        "serving.request_seconds", endpoint="/predict"
    )
    assert histogram["count"] == 1


def test_error_responses_are_counted_by_status(server):
    telemetry.enable()
    with pytest.raises(urllib.error.HTTPError):
        _get(server, "/predict?app=ghost&other=beta")
    assert (
        telemetry.registry().counter_value(
            "serving.requests", endpoint="/predict", status=400
        )
        == 1.0
    )


def test_unknown_paths_collapse_to_one_endpoint_label(server):
    # Arbitrary client paths must not mint unbounded telemetry label
    # cardinality: every unmatched path lands on the fixed <unknown> label.
    telemetry.enable()
    for path in ("/nope", "/admin", "/predict/../../etc/passwd", "/x" * 50):
        with pytest.raises(urllib.error.HTTPError):
            _get(server, path)
    registry = telemetry.registry()
    assert (
        registry.counter_value(
            "serving.requests", endpoint="<unknown>", status=404
        )
        == 4.0
    )
    snapshot = registry.snapshot()
    labelled = [k for k in snapshot["counters"] if "serving.requests" in k]
    assert all("/nope" not in k and "/admin" not in k for k in labelled)


def test_healthz_counts_served_requests(server):
    before = _get(server, "/healthz")[1]["shard_requests_served"]
    _get(server, "/predict?app=alpha&other=beta")
    with pytest.raises(urllib.error.HTTPError):
        _get(server, "/nope")  # errors count too: it is a served response
    document = _get(server, "/healthz")[1]
    after = document["shard_requests_served"]
    # healthz snapshots *before* counting itself, so the delta covers the
    # first healthz, the predict, and the 404.
    assert after == before + 3
    assert server.requests_served >= after
    # Standalone server: the fleet view is a fleet of one, totalling the
    # same tally under the aggregated name.
    assert document["fleet"]["shard_count"] == 1
    assert document["fleet"]["requests_served"] == after
    assert document["fleet"]["shards"][0]["shard_requests_served"] == after


def test_metrics_endpoint_returns_snapshot(server):
    telemetry.enable()
    _get(server, "/healthz")
    status, document = _get(server, "/metrics")
    assert status == 200
    assert any("serving.requests" in key for key in document.get("counters", {}))


def test_no_metrics_recorded_when_disabled(server):
    _get(server, "/healthz")
    snapshot = telemetry.registry().snapshot()
    assert not any(
        "serving" in key for key in snapshot.get("counters", {})
    )


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
def test_concurrent_predictions_match_direct_engine(server):
    import concurrent.futures

    def one(pair):
        app, other = pair
        return _get(server, f"/predict?app={app}&other={other}")[1]

    pairs = [("alpha", "beta"), ("beta", "alpha"), ("alpha", "alpha")] * 4
    with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
        documents = list(pool.map(one, pairs))
    for (app, other), document in zip(pairs, documents):
        for model, predicted in document["predictions"].items():
            assert predicted == server.engine.predict(app, other, model)


def test_concurrent_bad_requests_fail_alone(server):
    import concurrent.futures

    def good():
        return _get(server, "/predict?app=alpha&other=beta")[0]

    def bad():
        try:
            _get(server, "/predict?app=ghost&other=beta")
            return 200
        except urllib.error.HTTPError as exc:
            return exc.code

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        goods = [pool.submit(good) for _ in range(6)]
        bads = [pool.submit(bad) for _ in range(3)]
        assert [f.result() for f in goods] == [200] * 6
        assert [f.result() for f in bads] == [400] * 3


# ----------------------------------------------------------------------
# Request ids
# ----------------------------------------------------------------------
def _get_raw(server, path, headers=None):
    url = f"http://127.0.0.1:{server.server_port}{path}"
    request = urllib.request.Request(url, headers=headers or {})
    with _urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


def test_server_generates_request_id(server):
    _status, headers, _body = _get_raw(server, "/healthz")
    generated = headers.get("X-Request-Id")
    assert generated
    assert len(generated) == 32  # uuid4 hex
    assert all(ch in "0123456789abcdef" for ch in generated)


def test_client_request_id_is_echoed(server):
    _status, headers, _body = _get_raw(
        server, "/healthz", headers={"X-Request-Id": "trace-abc-123"}
    )
    assert headers.get("X-Request-Id") == "trace-abc-123"


def test_hostile_request_id_is_replaced(server):
    # Quotes, backslashes, and control characters would corrupt log lines
    # and headers; the server mints a fresh id instead of echoing them.
    _status, headers, _body = _get_raw(
        server, "/healthz", headers={"X-Request-Id": '"\\'}
    )
    echoed = headers.get("X-Request-Id")
    assert echoed
    assert '"' not in echoed and "\\" not in echoed


def test_error_responses_carry_request_id(server):
    try:
        _get_raw(server, "/nope", headers={"X-Request-Id": "err-1"})
    except urllib.error.HTTPError as exc:
        assert exc.headers.get("X-Request-Id") == "err-1"
    else:  # pragma: no cover
        raise AssertionError("expected a 404")


# ----------------------------------------------------------------------
# Content negotiation & fleet view
# ----------------------------------------------------------------------
def test_metrics_default_stays_json(server):
    telemetry.enable()
    _get(server, "/healthz")
    status, document = _get(server, "/metrics")  # no Accept preference
    assert status == 200
    assert isinstance(document, dict)
    assert "counters" in document


def test_metrics_negotiates_prometheus_text(server):
    from repro.telemetry import lint_exposition, parse_exposition

    telemetry.enable()
    _get(server, "/healthz")
    _get(server, "/predict?app=alpha&other=beta")
    status, headers, body = _get_raw(
        server, "/metrics", headers={"Accept": "text/plain"}
    )
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert lint_exposition(text) == []
    samples = parse_exposition(text)
    assert samples['serving_requests_total{endpoint="/predict",status="200"}'] == 1
    assert 'serving_request_seconds_count{endpoint="/predict"}' in samples


def test_metrics_fleet_single_server_is_fleet_of_one(server):
    telemetry.enable()
    _get(server, "/predict?app=alpha&other=beta")
    status, document = _get(server, "/metrics/fleet")
    assert status == 200
    assert document["shard_count"] == 1
    assert document["shards"][0]["version"] == "unversioned"
    counters = document["metrics"]["counters"]
    assert any("serving.requests" in key for key in counters)


def test_metrics_fleet_negotiates_prometheus_text(server):
    from repro.telemetry import lint_exposition

    telemetry.enable()
    _get(server, "/predict?app=alpha&other=beta")
    _status, headers, body = _get_raw(
        server, "/metrics/fleet", headers={"Accept": "text/plain"}
    )
    assert headers["Content-Type"].startswith("text/plain")
    assert lint_exposition(body.decode("utf-8")) == []
