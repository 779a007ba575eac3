"""Handler threads: reused across connections, never shared by two, and
released when the server closes.

Each connection is served by a handler thread that is already waiting, or
by a new one when none is, so a client that holds its connection open
delays nobody else.
"""

import http.client
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving import ModelArtifact, PredictionServer
from repro.serving.server import MAX_IDLE_HANDLERS, _Handler

from .conftest import make_catalog

#: Slow clients, more than the server keeps idle handlers for.
SLOW_CLIENTS = MAX_IDLE_HANDLERS + 8


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
    )
    instance = PredictionServer(artifact, port=0)
    instance.serve_background()
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def handler_threads(monkeypatch):
    """Every thread that runs a ``do_GET``, in call order."""
    threads = []
    do_get = _Handler.do_GET

    def recorded(self):
        threads.append(threading.current_thread())
        do_get(self)

    monkeypatch.setattr(_Handler, "do_GET", recorded)
    return threads


def _get(server, path):
    connection = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _read_until_closed(sock):
    chunks = []
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_slow_clients_block_nobody(server, monkeypatch):
    monkeypatch.setattr(_Handler, "timeout", 2.0)
    head = b"POST /predict HTTP/1.0\r\nContent-Length: 100\r\n\r\n{}"
    slow = []
    try:
        for _ in range(SLOW_CLIENTS):
            sock = socket.create_connection(("127.0.0.1", server.server_port), timeout=10)
            sock.sendall(head)
            slow.append(sock)
        for _ in range(20):
            start = time.monotonic()
            status, _body = _get(server, "/healthz")
            assert status == 200
            assert time.monotonic() - start < 0.5
        for sock in slow:
            response = _read_until_closed(sock)
            assert response.startswith(b"HTTP/1.0 408 "), response[:40]
    finally:
        for sock in slow:
            sock.close()


def test_sequential_requests_reuse_a_handler_thread(server, handler_threads):
    # Each reply is read to the server's close, which comes after its
    # handler has counted itself idle.
    for _ in range(200):
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=10) as sock:
            sock.sendall(b"GET /models HTTP/1.0\r\n\r\n")
            assert _read_until_closed(sock).startswith(b"HTTP/1.0 200 ")
    assert len(handler_threads) == 200
    assert len(set(handler_threads)) <= 2


def test_concurrent_clients_keep_the_idle_tally(server, handler_threads):
    """A lost update to the idle count would strand a connection unanswered,
    or leave a live handler uncounted."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=SLOW_CLIENTS) as pool:
            statuses = list(pool.map(lambda _: _get(server, "/models")[0], range(400)))
    finally:
        sys.setswitchinterval(previous)
    assert statuses == [200] * 400
    deadline = time.monotonic() + 2.0
    while server._idle != sum(thread.is_alive() for thread in set(handler_threads)):
        assert time.monotonic() < deadline, "the idle tally lost a handler"
        time.sleep(0.01)
    assert 1 <= server._idle <= MAX_IDLE_HANDLERS


def test_closing_the_server_releases_its_handlers(server, handler_threads):
    # Four connections at once take four handlers, which then wait idle.
    connections = [
        socket.create_connection(("127.0.0.1", server.server_port), timeout=10)
        for _ in range(4)
    ]
    for sock in connections:
        sock.sendall(b"GET /models HTTP/1.0\r\n\r\n")
    for sock in connections:
        assert _read_until_closed(sock).startswith(b"HTTP/1.0 200 ")
        sock.close()
    assert all(thread.is_alive() for thread in handler_threads)
    server.shutdown()
    server.server_close()
    deadline = time.monotonic() + 2.0
    while any(thread.is_alive() for thread in handler_threads):
        assert time.monotonic() < deadline, "a handler thread outlived the server"
        time.sleep(0.01)
