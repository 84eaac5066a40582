"""The stdlib HTTP transport over :class:`~repro.serve.service.NL2SQLService`.

One :class:`ReproServer` (a :class:`http.server.ThreadingHTTPServer`)
serializes the service's wire objects over eight routes:

========  ================  =============================================
method    path              body / response
========  ================  =============================================
POST      ``/v1/translate`` :class:`~repro.api.types.TranslateRequest` →
                            :class:`~repro.api.types.TranslateResponse`
POST      ``/v1/explain``   TranslateRequest (+ optional ``"sql"`` key) →
                            :class:`~repro.api.types.ExplainResponse`
POST      ``/v1/execute``   :class:`~repro.api.types.ExecuteRequest` →
                            :class:`~repro.api.types.ExecuteResponse`
GET       ``/v1/health``    liveness report (plain JSON)
GET       ``/v1/metrics``   obs metrics snapshot — JSON by default,
                            Prometheus text with ``Accept: text/plain``
GET       ``/v1/status``    SLO burn state + admission posture
GET       ``/v1/tenants/{id}/usage``  per-tenant cost ledger
GET       ``/v1/trace/{request_id}``  retained span tree (schema v1)
========  ================  =============================================

The three live-telemetry GET routes answer 501 when the service was
built without a :class:`~repro.obs.live.LiveTelemetry` layer.

Every error is an :class:`~repro.api.types.ErrorEnvelope` with the HTTP
status it names, a request the stdlib refuses before routing (an
unsupported method, a malformed request line or header block) included.
The handler speaks HTTP/1.1 with keep-alive so
closed-loop load generators reuse connections, and stays silent on
stdout/stderr (request logging goes through the service's observer, not
``BaseHTTPRequestHandler.log_message``).

Each response leaves in one socket write with Nagle's algorithm off, so
a request on a reused connection never waits on the client's delayed
ACK.  A body the handler cannot frame (bad or negative
``Content-Length``, any ``Transfer-Encoding``, or one past
:data:`MAX_BODY_BYTES`) is answered and then the connection is closed,
since its unread bytes would otherwise be parsed as the next request.
"""

from __future__ import annotations

import json
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import unquote

from repro.api.types import (
    ErrorEnvelope,
    ExecuteRequest,
    TranslateRequest,
    WireFormatError,
    check_text,
)
from repro.schema import exception_text
from repro.serve.service import NL2SQLService

#: Bodies past this size are refused before parsing (413).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes requests onto the server's service; one instance per request."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    sys_version = ""
    # Sets TCP_NODELAY on each accepted socket: a response is one write
    # (``_send``), so there is nothing for Nagle's algorithm to coalesce.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence stdlib per-request stderr logging."""

    @property
    def service(self) -> NL2SQLService:
        return self.server.service

    def _send(self, status: int, content_type: str, data: bytes) -> None:
        """Send one response, status line, headers and body, in one write.

        A body written after its headers waits under Nagle's algorithm
        for the client's delayed ACK of the headers (~40 ms).  HTTP/0.9
        has no header block, so it gets the bare body.  A response on a
        connection about to close says so.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        head = b""
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            head = b"".join(self._headers_buffer)
            self._headers_buffer = []
        self.wfile.write(head + data)

    def _send_json(self, status: int, payload) -> None:
        body = payload if isinstance(payload, (dict, list)) else payload.to_dict()
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self._send(status, "application/json", data)

    def _send_error_envelope(self, status: int, code: str,
                             message: str) -> None:
        self._send_json(
            status,
            ErrorEnvelope(code=code, message=message, status=status),
        )

    def send_error(self, code, message=None, explain=None):
        """Answer a request the stdlib refuses before routing (an
        unsupported method, a malformed request line or header block)
        with an :class:`ErrorEnvelope`, in one write, and close.

        A refused 4xx request is ``bad_request``, a 5xx one (a method or
        HTTP version the server does not speak) ``unsupported``; the
        status is the stdlib's.  A HEAD request gets the headers alone.
        Only a two-word request line is HTTP/0.9, but the stdlib leaves
        any line it cannot parse at HTTP/0.9 too, which would drop the
        status line: those are answered as HTTP/1.1.
        """
        if (self.request_version == "HTTP/0.9"
                and len(self.requestline.split()) != 2):
            self.request_version = self.protocol_version
        self.close_connection = True
        status = HTTPStatus(code)
        if self.command == "HEAD":
            self._send(int(status), "application/json", b"")
            return
        message = message or status.phrase
        if explain:
            message = f"{message}: {explain}"
        self._send_error_envelope(
            int(status), "unsupported" if status >= 500 else "bad_request",
            message,
        )

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if "Transfer-Encoding" in self.headers:
            length = -1  # chunked bodies are not read
        if 0 <= length <= MAX_BODY_BYTES:
            return self.rfile.read(length)
        # The unread body would be parsed as the next request.
        self.close_connection = True
        if length < 0:
            self._send_error_envelope(
                400, "bad_request",
                "a body needs a valid Content-Length and no Transfer-Encoding",
            )
        else:
            self._send_error_envelope(
                413, "payload_too_large",
                f"body exceeds {MAX_BODY_BYTES} bytes",
            )
        return None

    # -- routes -----------------------------------------------------------------

    def do_GET(self):  # noqa: N802 - stdlib routing convention
        if self.path == "/v1/health":
            status, payload = self.service.health()
        elif self.path == "/v1/metrics":
            # Content negotiation: JSON is the default wire format; a
            # scraper asking for text/plain gets Prometheus exposition.
            if "text/plain" in self.headers.get("Accept", ""):
                status, text = self.service.prometheus()
                self._send(
                    status, "text/plain; version=0.0.4; charset=utf-8",
                    text.encode("utf-8"),
                )
                return
            status, payload = self.service.metrics()
        elif self.path == "/v1/status":
            status, payload = self.service.status()
        elif (self.path.startswith("/v1/tenants/")
                and self.path.endswith("/usage")):
            # Ids are percent-decoded after the split, so an encoded
            # "/" (%2F) stays inside the id.
            tenant_id = unquote(self.path[len("/v1/tenants/"):-len("/usage")])
            status, payload = self.service.tenant_usage(tenant_id)
        elif self.path.startswith("/v1/trace/"):
            request_id = unquote(self.path[len("/v1/trace/"):])
            status, payload = self.service.trace(request_id)
        else:
            self._send_error_envelope(
                404, "not_found", f"no route {self.path!r}"
            )
            return
        self._send_json(status, payload)

    def do_POST(self):  # noqa: N802 - stdlib routing convention
        body = self._read_body()
        if body is None:
            return
        if self.path == "/v1/translate":
            self._wire(TranslateRequest, body, self.service.translate)
        elif self.path == "/v1/explain":
            self._explain(body)
        elif self.path == "/v1/execute":
            self._wire(ExecuteRequest, body, self.service.execute)
        else:
            self._send_error_envelope(
                404, "not_found", f"no route {self.path!r}"
            )

    def _wire(self, request_cls, body: bytes, endpoint) -> None:
        try:
            request = request_cls.from_json(body.decode("utf-8"))
        except (WireFormatError, UnicodeDecodeError) as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        status, payload = endpoint(request)
        self._send_json(status, payload)

    def _explain(self, body: bytes) -> None:
        # /v1/explain speaks TranslateRequest plus one optional "sql"
        # key; split it off before the strict wire parse.
        try:
            data = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        except RecursionError:
            self._send_error_envelope(
                400, "bad_request", "invalid JSON: nested too deeply"
            )
            return
        if not isinstance(data, dict):
            self._send_error_envelope(400, "bad_request", "expected an object")
            return
        sql = data.pop("sql", None)
        if sql is not None and not isinstance(sql, str):
            self._send_error_envelope(400, "bad_request", "sql must be a string")
            return
        try:
            if sql is not None:
                check_text("explain", "sql", sql)
            request = TranslateRequest.from_dict(data)
        except WireFormatError as exc:
            self._send_error_envelope(400, "bad_request", exception_text(exc))
            return
        status, payload = self.service.explain(request, sql=sql)
        self._send_json(status, payload)


class ReproServer(ThreadingHTTPServer):
    """The long-lived service process: one socket, one service, N threads.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`address`); :meth:`start` serves on a background thread so
    tests and the CLI share one lifecycle; :meth:`stop` shuts the
    listener down and joins the serving thread with a bounded wait.
    """

    daemon_threads = True

    def __init__(self, service: NL2SQLService, host: str = "127.0.0.1",
                 port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self.server_address[0], self.server_address[1]

    def start(self) -> "ReproServer":
        """Serve on a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop serving and release the socket (bounded join)."""
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None
        self.server_close()
        self.service.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
