"""The HTTP transport under ``repro serve``: one write per response with
Nagle's algorithm off, framing errors that close the connection, typed
envelopes for requests the stdlib refuses before routing, and a typed
400 for JSON nested past the decoder's recursion limit.

Every client here is a raw socket with a timeout, so a regression (a
stalled or dropped response) fails within seconds instead of hanging.
"""

import ast
import json
import socket
import time
from pathlib import Path

import pytest

from repro.serve import http as serve_http

TIMEOUT_S = 5.0

HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n"


class _RecordingWriter:
    """Delegates to the handler's socket writer, logging every write."""

    def __init__(self, raw, log: list):
        self._raw = raw
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


@pytest.fixture()
def wire(monkeypatch):
    """Per accepted connection: its TCP_NODELAY flag, and every
    ``wfile.write`` the handler makes, in order."""
    seen = {"nodelay": [], "writes": []}
    setup = serve_http._Handler.setup

    def recording_setup(self):
        setup(self)
        seen["nodelay"].append(self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        ))
        self.wfile = _RecordingWriter(self.wfile, seen["writes"])

    monkeypatch.setattr(serve_http._Handler, "setup", recording_setup)
    return seen


def connect(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=TIMEOUT_S)


def _recv(sock) -> bytes:
    chunk = sock.recv(65536)
    if not chunk:
        raise ConnectionError("connection closed mid-response")
    return chunk


def read_response(sock) -> tuple:
    """``(status, headers, raw)`` of one response; ``raw`` is every byte
    of it, and the socket is left at the start of the next one."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        raw += _recv(sock)
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(
        (key.strip().lower(), value.strip())
        for key, value in (line.split(":", 1) for line in lines[1:])
    )
    length = int(headers["content-length"])
    while len(body) < length:
        body += _recv(sock)
    assert len(body) == length, "bytes past the announced body"
    return int(lines[0].split()[1]), headers, raw


def body_of(raw: bytes):
    return json.loads(raw.partition(b"\r\n\r\n")[2])


def read_until_closed(sock) -> bytes:
    return b"".join(iter(lambda: sock.recv(65536), b""))


def post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


class TestOneWritePerResponse:
    @pytest.mark.parametrize("request_bytes, status, content_type", [
        (HEALTH, 200, "application/json"),
        (b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\n\r\n",
         200, "text/plain; version=0.0.4; charset=utf-8"),
        (b"GET /v1/nope HTTP/1.1\r\nHost: t\r\n\r\n",
         404, "application/json"),
    ], ids=["json", "prometheus", "error-envelope"])
    def test_headers_and_body_leave_in_one_write(self, server, wire,
                                                 request_bytes, status,
                                                 content_type):
        with connect(server) as sock:
            sock.sendall(request_bytes)
            got, headers, raw = read_response(sock)
        assert got == status
        assert headers["content-type"] == content_type
        assert wire["writes"] == [raw]

    def test_http09_gets_the_bare_body_in_one_write(self, server, wire):
        with connect(server) as sock:
            sock.sendall(b"GET /v1/health\r\n\r\n")
            data = read_until_closed(sock)
        assert json.loads(data)["status"] == "ok"
        assert wire["writes"] == [data]

    def test_accepted_socket_has_nagle_off(self, server, wire):
        with connect(server) as sock:
            sock.sendall(HEALTH)
            read_response(sock)
        assert len(wire["nodelay"]) == 1
        assert wire["nodelay"][0] != 0

    def test_back_to_back_keep_alive_requests_do_not_stall(self, server):
        # A body written after its headers waits on the client's delayed
        # ACK (~40 ms) under Nagle's algorithm: 20 requests then take
        # ~0.8 s.
        with connect(server) as sock:
            start = time.perf_counter()
            for _ in range(20):
                sock.sendall(HEALTH)
                assert read_response(sock)[0] == 200
            elapsed = time.perf_counter() - start
        assert elapsed < 0.5


class TestFramingErrors:
    @pytest.mark.parametrize("framing", [
        b"Content-Length: -1\r\n\r\n",
        b"Content-Length: abc\r\n\r\n",
        # Chunked bodies are not read; the chunks would be parsed as
        # the next request.
        b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    ], ids=["negative", "not-a-number", "chunked"])
    def test_unframed_body_gets_400_and_close(self, server, framing):
        with connect(server) as sock:
            sock.sendall(
                b"POST /v1/translate HTTP/1.1\r\nHost: t\r\n" + framing
            )
            status, headers, raw = read_response(sock)
            assert read_until_closed(sock) == b""
        assert status == 400
        assert body_of(raw)["code"] == "bad_request"
        assert headers["connection"] == "close"

    def test_oversized_body_is_not_parsed_as_the_next_request(self, server):
        # The "body" is a well-formed request: served after the 413, it
        # would answer 200 on the same connection.
        announced = serve_http.MAX_BODY_BYTES + 1
        with connect(server) as sock:
            sock.sendall(
                b"POST /v1/translate HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {announced}\r\n\r\n".encode("ascii")
                + HEALTH
            )
            status, headers, raw = read_response(sock)
            assert read_until_closed(sock) == b""
        assert status == 413
        assert body_of(raw)["code"] == "payload_too_large"
        assert headers["connection"] == "close"


class TestStdlibRefusals:
    """Requests the stdlib refuses before any route runs."""

    @pytest.mark.parametrize("request_bytes, status, code", [
        (b"PUT /v1/health HTTP/1.1\r\nHost: t\r\n\r\n",
         501, "unsupported"),
        (b"GET /v1 health HTTP/1.1\r\nHost: t\r\n\r\n",
         400, "bad_request"),
        (b"GET /v1/health HTTP/one\r\nHost: t\r\n\r\n",
         400, "bad_request"),
        (b"GET /v1/health HTTP/1.1\r\n"
         + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
         431, "bad_request"),
        (b"GET /v1/health HTTP/2.0\r\nHost: t\r\n\r\n",
         505, "unsupported"),
    ], ids=["unsupported-method", "bad-request-line", "bad-version",
            "too-many-headers", "unsupported-version"])
    def test_get_an_envelope_in_one_write_and_close(self, server, wire,
                                                    request_bytes, status,
                                                    code):
        with connect(server) as sock:
            sock.sendall(request_bytes)
            got, headers, raw = read_response(sock)
            assert read_until_closed(sock) == b""
        assert got == status
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        envelope = body_of(raw)
        assert (envelope["status"], envelope["code"]) == (status, code)
        assert envelope["message"]
        assert wire["writes"] == [raw]

    def test_head_gets_the_headers_without_a_body(self, server, wire):
        with connect(server) as sock:
            sock.sendall(b"HEAD /v1/health HTTP/1.1\r\nHost: t\r\n\r\n")
            got, headers, raw = read_response(sock)
            assert read_until_closed(sock) == b""
        assert got == 501
        assert headers["content-type"] == "application/json"
        assert headers["content-length"] == "0"
        assert headers["connection"] == "close"
        assert raw.endswith(b"\r\n\r\n")
        assert wire["writes"] == [raw]


class TestDeepNesting:
    @pytest.mark.parametrize("nesting", [b"[" * 100_000, b'{"a":' * 40_000],
                             ids=["arrays", "objects"])
    @pytest.mark.parametrize("path",
                             ["/v1/translate", "/v1/execute", "/v1/explain"])
    def test_gets_a_400_envelope_on_a_live_connection(self, server, path,
                                                      nesting):
        with connect(server) as sock:
            sock.sendall(post(path, nesting))
            status, headers, raw = read_response(sock)
            assert status == 400
            assert body_of(raw)["code"] == "bad_request"
            assert "nested too deeply" in body_of(raw)["message"]
            # The body was read in full, so the connection stays usable.
            sock.sendall(HEALTH)
            assert read_response(sock)[0] == 200


def test_handler_writes_to_the_socket_in_one_place():
    """A route that wrote its own headers or body would split a response
    into two writes again, and with them bring back the delayed-ACK
    stall; ``_Handler._send`` is the only writer."""
    tree = ast.parse(Path(serve_http.__file__).read_text(encoding="utf-8"))
    handler = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_Handler"
    )
    writes, header_flushes = [], []
    for node in ast.walk(handler):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if (node.func.attr == "write"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "wfile"):
            writes.append(node.lineno)
        # These stdlib methods write the header block on their own.
        if node.func.attr in ("end_headers", "flush_headers", "send_error"):
            header_flushes.append(node.lineno)
    assert len(writes) == 1, f"wfile.write at lines {writes}"
    assert header_flushes == []
