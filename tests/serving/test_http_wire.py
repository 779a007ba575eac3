"""The server on the wire: hostile requests, stdlib error replies, one write.

Requests go over raw sockets so that any byte sequence can be sent and a
dropped connection is seen as such.  Every request must get a status line
(a 200 or a 4xx, never a 5xx), and ``/healthz`` must answer after it.
"""

import json
import socket
import time
from urllib.parse import quote, urlencode

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.serving import ModelArtifact, PredictionServer
from repro.serving.server import _Handler

from .conftest import make_catalog


@pytest.fixture(scope="module")
def server():
    observations, degradations, signatures, cal = make_catalog(
        apps=("alpha", "beta"), configs=5
    )
    artifact = ModelArtifact(
        observations=observations,
        degradations=degradations,
        signatures=signatures,
        calibration=cal,
    )
    instance = PredictionServer(artifact, port=0)
    instance.serve_background()
    yield instance
    instance.shutdown()
    instance.server_close()


def _request(method, target, body=None, headers=()):
    lines = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + (body or b"")


def _exchange(server, raw):
    """Send ``raw`` and read the reply until the server closes."""
    chunks = []
    address = ("127.0.0.1", server.server_port)
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(raw)
        while True:
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:
                # A reply to a request the server did not read to its end
                # is followed by a reset rather than a clean close.
                if chunks:
                    break
                raise
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status(response):
    assert response, "the server closed the connection without a response"
    return int(response.split(b"\r\n", 1)[0].split()[1])


def _assert_answered(server, raw):
    status = _status(_exchange(server, raw))
    assert 200 <= status < 500 and status != 404, status
    assert _status(_exchange(server, _request("GET", "/healthz"))) == 200
    return status


# ----------------------------------------------------------------------
# Fuzz: bodies, query strings and headers
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
NAMES = st.sampled_from(["alpha", "beta", "Queue", "PDFLT", "ghost", ""]) | JSON
PREDICT = st.fixed_dictionaries(
    {"app": NAMES, "other": NAMES}, optional={"model": NAMES}
)
BATCH = st.fixed_dictionaries(
    {"requests": st.lists(st.lists(NAMES, max_size=4), max_size=5) | JSON}
)
BODIES = (
    st.binary(max_size=64)
    | JSON.map(lambda document: json.dumps(document).encode())
    | (PREDICT | BATCH).map(lambda document: json.dumps(document).encode())
)
# Any latin-1 header value that stays on its own line.
HEADER_VALUE = st.text(
    st.characters(max_codepoint=0xFF, blacklist_characters="\r\n"), max_size=64
)
HEADERS = st.lists(
    st.tuples(st.sampled_from(["X-Request-Id", "Accept"]), HEADER_VALUE),
    max_size=3,
)
QUERIES = st.text(max_size=40).map(
    lambda text: quote(text, safe="=&;+%")
) | st.dictionaries(
    st.sampled_from(["app", "other", "model"]) | st.text(max_size=4),
    st.sampled_from(["alpha", "beta", "Queue", "ghost", ""]) | st.text(max_size=8),
    max_size=4,
).map(urlencode)

#: Bodies that dropped the connection before the body parser and the
#: ``model`` field were made strict.
HOSTILE_BODIES = (
    b"[" * 100_000,  # RecursionError
    b'{"app": "\xff\xfe"}',  # UnicodeDecodeError
    b"1" * 5_000,  # ValueError: past the integer digit limit
    b'{"app": "alpha", "other": "beta", "model": [1]}',  # unhashable
    b'{"app": "alpha", "other": "beta", "model": {"a": 1}}',
)


def _hostile_examples(test):
    for body in HOSTILE_BODIES:
        for path in ("/predict", "/predict/batch"):
            test = example(path=path, body=body, headers=[])(test)
    return test


@_hostile_examples
@given(
    path=st.sampled_from(["/predict", "/predict/batch"]),
    body=BODIES,
    headers=HEADERS,
)
@settings(max_examples=150)
def test_any_post_body_gets_a_reply(server, path, body, headers):
    _assert_answered(server, _request("POST", path, body, headers))


@given(query=QUERIES, headers=HEADERS)
@settings(max_examples=150)
def test_any_query_string_and_headers_get_a_reply(server, query, headers):
    _assert_answered(server, _request("GET", f"/predict?{query}", headers=headers))


@pytest.mark.parametrize("model", [0, False, 1.5, [1], {"a": 1}])
def test_predict_post_refuses_a_model_that_is_not_a_name(server, model):
    body = json.dumps({"app": "alpha", "other": "beta", "model": model}).encode()
    response = _exchange(server, _request("POST", "/predict", body))
    assert _status(response) == 400
    assert b"'model' must be a model name" in response


@pytest.mark.parametrize("model", [None, ""])
def test_predict_post_null_or_empty_model_answers_all_models(server, model):
    body = json.dumps({"app": "alpha", "other": "beta", "model": model}).encode()
    response = _exchange(server, _request("POST", "/predict", body))
    assert _status(response) == 200
    document = json.loads(response.split(b"\r\n\r\n", 1)[1])
    assert sorted(document["predictions"]) == server.engine.model_names


# ----------------------------------------------------------------------
# The buffered writer: stdlib error replies, and one write per response
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw, status",
    [
        (b"GET /predict extra HTTP/1.0\r\n\r\n", 400),
        (_request("PUT", "/predict", b"{}"), 501),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", 414),
    ],
    ids=["malformed-request-line", "put", "long-uri"],
)
def test_stdlib_error_replies_still_leave(server, raw, status):
    assert _status(_exchange(server, raw)) == status
    assert _status(_exchange(server, _request("GET", "/healthz"))) == 200


def test_a_response_leaves_in_one_write(server, monkeypatch):
    writes = []
    write = socket.SocketIO.write

    def counted(self, data):
        writes.append(bytes(data))
        return write(self, data)

    monkeypatch.setattr(socket.SocketIO, "write", counted)
    body = json.dumps({"requests": [["alpha", "beta"], ["beta", "alpha"]]}).encode()
    response = _exchange(server, _request("POST", "/predict/batch", body))
    assert _status(response) == 200
    assert writes == [response]


# ----------------------------------------------------------------------
# A slow client: a body that never arrives in full
# ----------------------------------------------------------------------
def test_a_short_body_times_out_with_a_408(server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 0.5)
    telemetry.enable()
    telemetry.reset()
    try:
        head = (
            "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Length: 100\r\n\r\n"
        )
        address = ("127.0.0.1", server.server_port)
        with socket.create_connection(address, timeout=3) as sock:
            start = time.monotonic()
            sock.sendall(head.encode("latin-1") + b"{}")
            chunks = []
            while True:  # the server closes the connection after the reply
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
            elapsed = time.monotonic() - start
        response = b"".join(chunks)
        assert _status(response) == 408
        assert elapsed < 3
        assert b"did not arrive" in response
        count = telemetry.registry().counter_value(
            "serving.requests", endpoint="/predict", status=408
        )
        assert count == 1.0
    finally:
        telemetry.disable()
        telemetry.reset()
    assert _status(_exchange(server, _request("GET", "/healthz"))) == 200
