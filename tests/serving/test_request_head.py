"""The request head: its parser, the replies to a refused head, and the body's
``Content-Length``.

Requests go over raw sockets, so any byte sequence can be sent.  Every
refused request must get a counted JSON error with a status line and an
``X-Request-Id``, and ``/healthz`` must answer after it.
"""

import json
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.serving import ModelArtifact, PredictionServer
from repro.serving.server import MAX_BODY_BYTES, UNKNOWN_ENDPOINT

from .conftest import make_catalog

BODY = json.dumps({"app": "alpha", "other": "beta"}).encode()


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


@pytest.fixture()
def counted():
    telemetry.enable()
    telemetry.reset()
    yield telemetry.registry()
    telemetry.disable()
    telemetry.reset()


def _exchange(server, raw):
    """Send ``raw`` and read the reply until the server closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", server.server_port), timeout=30) as sock:
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


def _reply(response):
    """(status, headers by lower-cased name, body) of a response."""
    assert response, "the server closed the connection without a response"
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    assert status_line.startswith("HTTP/1.0 "), status_line
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), {k.lower(): v for k, v in headers.items()}, body


def _post(header_lines, body=BODY, target="/predict"):
    head = [f"POST {target} HTTP/1.0", *header_lines]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _healthy(server):
    status, _headers, _body = _reply(_exchange(server, b"GET /healthz HTTP/1.0\r\n\r\n"))
    return status == 200


# ----------------------------------------------------------------------
# A refused head gets a counted JSON error
# ----------------------------------------------------------------------
REFUSED = [
    ("bad-request-line", b"GET /predict extra HTTP/1.0\r\n\r\n", 400),
    ("bad-version", b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    ("long-uri", b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n", 414),
    (
        "too-many-headers",
        b"GET /healthz HTTP/1.0\r\n" + b"X-Filler: 1\r\n" * 101 + b"\r\n",
        431,
    ),
    (
        "long-header-line",  # 64 KiB + 1, CRLF included
        b"GET /healthz HTTP/1.0\r\nX-Filler: " + b"a" * 65_525 + b"\r\n\r\n",
        431,
    ),
    ("put", b"PUT /predict HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", 501),
    ("http-2", b"GET /healthz HTTP/2.0\r\n\r\n", 505),
]


@pytest.mark.parametrize(
    "raw, status", [case[1:] for case in REFUSED], ids=[case[0] for case in REFUSED]
)
def test_a_refused_head_gets_a_counted_json_error(server, counted, raw, status):
    served = server.requests_served
    got, headers, body = _reply(_exchange(server, raw))
    assert got == status
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(body)
    assert len(headers["x-request-id"]) == 32
    assert list(json.loads(body)) == ["error"]
    assert server.requests_served == served + 1
    assert counted.counter_value(
        "serving.requests", endpoint=UNKNOWN_ENDPOINT, status=status
    ) == 1.0
    assert _healthy(server)


def test_a_refused_request_adopts_the_clients_request_id(server):
    raw = b"PUT /predict HTTP/1.0\r\nX-Request-Id: put-1\r\n\r\n"
    status, headers, _body = _reply(_exchange(server, raw))
    assert (status, headers["x-request-id"]) == (501, "put-1")


# ----------------------------------------------------------------------
# The head parser
# ----------------------------------------------------------------------
def test_the_first_of_duplicate_headers_wins(server):
    raw = _post(
        [f"Content-Length: {len(BODY)}", "Content-Length: 3",
         "X-Request-Id: first", "X-Request-Id: second"]
    )
    status, headers, body = _reply(_exchange(server, raw))
    assert status == 200, body
    assert headers["x-request-id"] == "first"


def test_header_names_match_in_any_case(server):
    raw = _post([f"cOnTeNt-LeNgTh: {len(BODY)}", "x-request-id: lower"])
    status, headers, body = _reply(_exchange(server, raw))
    assert status == 200, body
    assert headers["x-request-id"] == "lower"


def test_a_hundred_headers_and_a_64_kib_line_are_read(server):
    filler = ["X-Filler: 1"] * 99
    raw = _post([f"Content-Length: {len(BODY)}", *filler])
    assert _reply(_exchange(server, raw))[0] == 200
    # 65 536 bytes, CRLF included: the longest line the parser takes.
    long_line = "X-Filler: " + "a" * (65_536 - len("X-Filler: ") - 2)
    raw = _post([f"Content-Length: {len(BODY)}", long_line])
    assert _reply(_exchange(server, raw))[0] == 200


@pytest.mark.parametrize(
    "line",
    ["X-Request-Id", "X-Request-Id : bad", "X Request: bad", ": empty", " folded"],
    ids=["colonless", "space-before-colon", "space-in-name", "empty-name", "obs-fold"],
)
def test_a_line_that_is_not_name_colon_value_is_a_400(server, line):
    raw = _post([f"Content-Length: {len(BODY)}", "X-Request-Id: kept", line])
    status, headers, body = _reply(_exchange(server, raw))
    assert status == 400
    assert json.loads(body)["error"].startswith("Bad header line")
    assert headers["x-request-id"] != "kept"
    assert _healthy(server)


# ----------------------------------------------------------------------
# Content-Length
# ----------------------------------------------------------------------
@pytest.mark.parametrize("length", [MAX_BODY_BYTES + 1, 2_000_000, 10**12, 10**18, 10**20])
def test_an_oversized_content_length_gets_a_413_before_the_body(server, counted, length):
    status, _headers, body = _reply(_exchange(server, _post([f"Content-Length: {length}"])))
    assert status == 413
    assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
    assert counted.counter_value(
        "serving.requests", endpoint="/predict", status=413
    ) == 1.0
    assert _healthy(server)


LATIN1_TEXT = st.text(
    st.characters(max_codepoint=0xFF, blacklist_characters="\r\n"), max_size=12
)
LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=2 * len(BODY)).map(str),
    st.integers(min_value=MAX_BODY_BYTES + 1, max_value=10**30).map(str),
    st.integers(max_value=-1).map(str),
    st.integers(min_value=0, max_value=99).map(lambda n: f"+{n}"),
    st.integers(min_value=10, max_value=99).map(lambda n: f"{n // 10}_{n % 10}"),
    LATIN1_TEXT,
)


@example(length="1000000000000")
@example(length=str(10**18))
@example(length=str(10**20))
@example(length="9" * 5_000)
@example(length="0" * 40 + "12")
@example(length=" 12 ")
@example(length="\xb2")
@given(length=LENGTHS)
@settings(max_examples=100)
def test_any_content_length_gets_a_reply(server, length):
    """The body is never shorter than a length the server would read."""
    value = length.strip(" \t").lstrip("0")
    stated = int(value) if value.isascii() and value.isdigit() and len(value) < 8 else 0
    body = BODY.ljust(stated if stated <= MAX_BODY_BYTES else 0, b" ")
    status, _headers, _body = _reply(_exchange(server, _post([f"Content-Length: {length}"], body)))
    assert status == 200 or 400 <= status < 500, status
    assert _healthy(server)
