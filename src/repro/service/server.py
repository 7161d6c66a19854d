"""Minimal JSON-over-HTTP front end for the BIST service (stdlib only).

The protocol is deliberately tiny — enough for the CLI, CI and scripted
clients, with no framework dependency.  Requests and responses are JSON;
connections are one-shot (``Connection: close``).  Routes::

    GET  /health            liveness probe
    POST /jobs              submit a CampaignSpec payload -> {"job_id": ...}
    GET  /jobs              status snapshots of every job
    GET  /jobs/<id>         one job's status
    GET  /jobs/<id>/result  merged summary + outcomes (409 until terminal);
                            each report's spectrum ``frequencies_hz`` and
                            ``psd`` are base64 float64 strings (see
                            SpectrumEstimate.to_dict), not lists
    GET  /stats             queue-level aggregates
    POST /drain             graceful shutdown (finish in-flight, refuse new)

The server is a thin asyncio layer over :class:`~repro.service.queue.JobQueue`;
HTTP parsing is hand-rolled (request line, headers, ``Content-Length`` body)
because the stdlib's blocking ``http.server`` cannot share an event loop
with the queue's consumer task.
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ConfigurationError, JobNotFoundError, ServiceError, ValidationError
from .queue import JobQueue
from .spec import CampaignSpec

__all__ = ["BistServiceServer", "serve"]

#: Maximum accepted request-body size (a spec is a few KiB; 4 MiB is ample).
_MAX_BODY_BYTES = 4 * 1024 * 1024


class BistServiceServer:
    """One listening socket in front of one :class:`JobQueue`."""

    def __init__(self, queue: JobQueue, host: str = "127.0.0.1", port: int = 8321) -> None:
        self._queue = queue
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with ``port=0``)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._port

    async def start(self) -> None:
        """Bind the socket and start the queue's consumer task."""
        self._queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def serve_forever(self) -> None:
        """Serve until a ``POST /drain`` (or :meth:`stop`) completes."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self._shutdown_now()

    async def stop(self) -> None:
        """Programmatic drain + socket teardown (used by tests)."""
        self._shutdown.set()
        await self._shutdown_now()

    async def _shutdown_now(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._queue.drain()

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as exc:  # noqa: BLE001 - a bad request must not kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  500: "Internal Server Error", 503: "Service Unavailable"}.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        try:
            await writer.drain()
        finally:
            writer.close()

    async def _handle_request(self, reader) -> tuple:
        request_line = (await reader.readline()).decode("ascii", "replace").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": f"malformed request line: {request_line!r}"}
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("ascii", "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "invalid Content-Length"}
                if content_length < 0:
                    return 400, {"error": "invalid Content-Length"}
        if content_length > _MAX_BODY_BYTES:
            return 400, {"error": "request body too large"}
        try:
            body = await reader.readexactly(content_length) if content_length else b""
        except asyncio.IncompleteReadError as exc:
            return 400, {
                "error": f"request body ended after {len(exc.partial)} of "
                f"{content_length} Content-Length bytes"
            }
        return self._route(method, path, body)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, method: str, path: str, body: bytes) -> tuple:
        path = path.rstrip("/") or "/"
        if path == "/health":
            if method != "GET":
                return 405, {"error": "use GET /health"}
            return 200, {"status": "ok", "draining": self._queue.draining}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET /stats"}
            return 200, self._queue.service_stats()
        if path == "/drain":
            if method != "POST":
                return 405, {"error": "use POST /drain"}
            self._shutdown.set()
            return 200, {"status": "draining"}
        if path == "/jobs":
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return 200, {"jobs": self._queue.jobs()}
            return 405, {"error": "use GET or POST /jobs"}
        if path.startswith("/jobs/"):
            if method != "GET":
                return 405, {"error": "job resources are read-only (GET)"}
            remainder = path[len("/jobs/"):]
            job_id, _, tail = remainder.partition("/")
            try:
                if tail == "result":
                    return 200, self._queue.result(job_id)
                if tail == "":
                    return 200, self._queue.status(job_id)
            except JobNotFoundError as exc:
                return 404, {"error": str(exc)}
            except ServiceError as exc:
                return 409, {"error": str(exc)}
            return 404, {"error": f"unknown job resource {tail!r}"}
        return 404, {"error": f"unknown path {path!r}"}

    def _submit(self, body: bytes) -> tuple:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (ValueError, UnicodeDecodeError) as exc:
            return 400, {"error": f"request body is not valid JSON: {exc}"}
        try:
            spec = CampaignSpec.from_dict(payload)
        except (ValidationError, ConfigurationError, TypeError, KeyError) as exc:
            # ConfigurationError: a model the body names that does not exist
            # (an unknown amplifier type) or settings that contradict.
            return 400, {"error": f"invalid campaign spec: {exc}"}
        try:
            job_id = self._queue.submit(spec)
        except ServiceError as exc:
            return 503, {"error": str(exc)}
        return 200, {"job_id": job_id, "description": spec.describe()}


async def serve(
    store_root,
    host: str = "127.0.0.1",
    port: int = 8321,
    num_workers: int = 4,
    ready_callback=None,
    **coordinator_options,
) -> None:
    """Run a BIST service until drained (the ``repro.service serve`` entry).

    ``ready_callback`` (when given) receives the bound port once the socket
    is listening — tests and the CLI use it instead of racing a sleep.
    """
    queue = JobQueue(store_root, num_workers=num_workers, **coordinator_options)
    server = BistServiceServer(queue, host=host, port=port)
    await server.start()
    if ready_callback is not None:
        ready_callback(server.port)
    await server.serve_forever()
