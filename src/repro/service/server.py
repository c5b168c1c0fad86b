"""The benchmark daemon: a threaded HTTP/JSON front on the scheduler.

Stdlib only — :class:`http.server.ThreadingHTTPServer` gives every
connection its own handler thread, which blocks in
:meth:`~repro.service.scheduler.SweepScheduler.wait` while the
scheduler's dispatchers run batches on the warm pool.  Four endpoints:

``GET /healthz``
    Liveness: protocol version and uptime, nothing that can block.
``GET /stats``
    The scheduler's lifetime counters plus the shared cache's
    :meth:`~repro.core.parallel.ResultCache.stats` snapshot.
``POST /trial``
    One benchmark cell.  Responds with the JSON summary payload or —
    with ``"format": "wire"`` — the packed binary frame of
    :mod:`repro.core.wire` under ``application/x-repro-wire``, exactly
    the bytes the cache stores for that fingerprint.
``POST /sweep``
    A grid request (``base`` + ``sizes``/``counts``); the whole grid is
    admitted as one batch and answered as an ordered JSON cell list.

Every failure is a structured JSON error body
(:func:`~repro.service.protocol.error_payload`): 400 for malformed
requests, 429 for quota rejections, 503 on shutdown, 500 for engine
failures.  Nothing about a request is trusted: bodies are size-capped
and parsed defensively before they reach the protocol layer.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..core.parallel import ResultCache
from ..core.wire import encode_result
from ..obs.kinds import SERVICE_REJECT
from .protocol import (PROTOCOL_VERSION, ProtocolError, ServiceError,
                       error_payload, parse_sweep_request,
                       parse_trial_request, result_to_payload)
from .scheduler import SweepScheduler

__all__ = ["MAX_BODY_BYTES", "SweepService", "serve"]

#: Request bodies above this are rejected outright (413) before parsing.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Binary responses (the cache's wire frames) use this content type.
WIRE_CONTENT_TYPE = "application/x-repro-wire"


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the service rides on ``server.service``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-sweepd"
    # Headers and body leave as two writes; with Nagle on, a kept-alive
    # connection's second write waits for the client's delayed ACK
    # (~40 ms per request).  TCP_NODELAY sends it at once.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the daemon's
    # request log is the service.* event stream instead.
    def log_message(self, fmt, *args):  # noqa: D102
        if self.server.service.verbose:  # type: ignore[attr-defined]
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    @property
    def service(self) -> "SweepService":
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ----------------------------------------------------------

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"))

    def _send_error(self, exc: ServiceError, client: str = "?") -> None:
        service = self.service
        service.scheduler.obs.emit(
            SERVICE_REJECT, service.scheduler._now(), client, exc.status,
            exc.reason)
        self._send_json(exc.status, error_payload(exc))

    def _read_body(self):
        length = self.headers.get("Content-Length")
        try:
            length = int(length)
        except (TypeError, ValueError):
            raise ProtocolError("request requires a Content-Length header")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", status=413)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    # -- endpoints ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler convention)
        service = self.service
        if self.path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": service.uptime(),
            })
        elif self.path == "/stats":
            self._send_json(200, service.stats())
        else:
            self._send_error(ServiceError(
                f"no such endpoint: GET {self.path}", status=404))

    def do_POST(self) -> None:  # noqa: N802
        if self.path == "/trial":
            handler = self._handle_trial
        elif self.path == "/sweep":
            handler = self._handle_sweep
        else:
            self._send_error(ServiceError(
                f"no such endpoint: POST {self.path}", status=404))
            return
        try:
            handler(self._read_body())
        except ServiceError as exc:
            self._send_error(exc)
        except Exception as exc:  # a handler bug must not kill the thread
            self._send_error(ServiceError(
                f"{type(exc).__name__}: {exc}", status=500))

    def _handle_trial(self, body) -> None:
        service = self.service
        config, client, priority, fmt, samples = parse_trial_request(body)
        try:
            result = service.scheduler.execute(
                config, client=client, priority=priority,
                timeout=service.request_timeout)
        except ServiceError as exc:
            self._send_error(exc, client)
            return
        if fmt == "wire":
            self._send(200, encode_result(result), WIRE_CONTENT_TYPE)
        else:
            self._send_json(200, result_to_payload(result, samples))

    def _handle_sweep(self, body) -> None:
        service = self.service
        cells, client, priority, samples = parse_sweep_request(body)
        scheduler = service.scheduler
        try:
            requests = [scheduler.submit(cell, client=client,
                                         priority=priority)
                        for cell in cells]
        except ServiceError as exc:
            # Quota hit partway through admission: the cells already
            # queued still run (and warm the cache), but this request
            # is answered with the rejection.
            self._send_error(exc, client)
            return
        try:
            results = [scheduler.wait(request,
                                      timeout=service.request_timeout)
                       for request in requests]
        except ServiceError as exc:
            self._send_error(exc, client)
            return
        self._send_json(200, {
            "cells": [result_to_payload(result, samples)
                      for result in results],
        })


class SweepService:
    """The daemon: one scheduler, one cache, one listening socket.

    Construct, then :meth:`start` (background thread) or
    :meth:`serve_forever` (foreground).  ``port=0`` binds an ephemeral
    port — read the bound address back from :attr:`address` — which is
    how tests and the load-test boot mode avoid collisions.
    """

    def __init__(self, scheduler: SweepScheduler,
                 host: str = "127.0.0.1", port: int = 8642,
                 request_timeout: Optional[float] = 300.0,
                 verbose: bool = False) -> None:
        self.scheduler = scheduler
        self.request_timeout = request_timeout
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._t0 = time.monotonic()  # simlint: disable=SIM101

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolved even for ``port=0``)."""
        return self._httpd.server_address[:2]

    def uptime(self) -> float:
        """Seconds since the service object was constructed."""
        return time.monotonic() - self._t0  # simlint: disable=SIM101

    def stats(self) -> dict:
        """The ``GET /stats`` payload: scheduler counters + cache."""
        payload = {
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": self.uptime(),
            "scheduler": self.scheduler.stats.as_dict(),
            "inflight": self.scheduler.inflight(),
        }
        cache = self.scheduler.cache
        if isinstance(cache, ResultCache):
            payload["cache"] = cache.stats()
        return payload

    def start(self) -> "SweepService":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` (or SIGINT)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting, fail queued requests, release the socket."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self.scheduler.stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


def serve(scheduler: SweepScheduler, host: str = "127.0.0.1",
          port: int = 8642, verbose: bool = False,
          request_timeout: Optional[float] = 300.0) -> SweepService:
    """Build and start a background :class:`SweepService` in one call."""
    return SweepService(scheduler, host=host, port=port, verbose=verbose,
                        request_timeout=request_timeout).start()
