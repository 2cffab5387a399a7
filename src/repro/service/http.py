"""Thin stdlib asyncio HTTP/1.1 adapter over :class:`SimulationService`.

No framework, no dependency: ``asyncio.start_server`` + a minimal
request parser, enough for the service's small JSON API.  Routes:

====== ============================ =======================================
POST   /v1/jobs                     submit one job
POST   /v1/plans                    submit a list of jobs (one plan)
GET    /v1/jobs/<id>                job record + events
GET    /v1/jobs/<id>/result         the stored RunResult (409 until done)
DELETE /v1/jobs/<id>                cancel
GET    /v1/health                   liveness (store + executor probes)
GET    /v1/ready                    readiness (started, not draining)
GET    /v1/stats                    scheduler + executor stats
POST   /v1/drain                    begin graceful drain
====== ============================ =======================================

Submission body: ``{"tenant": "...", "request": {<ExperimentRequest
.to_dict()>}, "deadline_s": 30.0}`` (plans carry ``"requests": [...]``).
Errors come back as ``{"error": {"code", "message", "status"}}`` with
the status from the typed
:class:`~repro.resilience.errors.ServiceError` mapping, so clients can
rebuild the exact error class (:func:`~repro.service.errors
.error_for_code`).  The tenant is taken from the body, falling back to
the ``X-Repro-Tenant`` header, falling back to ``"default"``; it is
journaled on the job as a label and never refuses one.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import PRESETS
from ..harness.executor import ExperimentRequest
from ..resilience.errors import ServiceError
from .app import ServiceConfig, SimulationService
from .errors import InvalidRequestError, JobNotFoundError, http_status_for

__all__ = ["ServiceServer", "serve"]

_MAX_BODY = 8 * 1024 * 1024

#: GIL switch interval while serving.  The worker thread simulates
#: holding the GIL, and the event loop gives it up on every socket
#: read/write and journal fsync; at the interpreter's default 5 ms each
#: hand-back took up to 5 ms, so a hit answered from memory took ~40 ms
#: whenever a simulation ran, against ~4 ms at this setting.
_SWITCH_INTERVAL_S = 0.0001

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _record_payload(service: SimulationService, job_id: str) -> Dict[str, Any]:
    record = service.job(job_id)
    payload = record.to_dict()
    payload["events"] = service.events(job_id)
    return payload


def _error_reply(exc: ServiceError) -> Tuple[int, Dict[str, Any]]:
    status = http_status_for(exc)
    return status, {"error": {
        "code": exc.code, "message": str(exc), "status": status,
    }}


def _parse_request_body(body: Dict[str, Any]) -> ExperimentRequest:
    if not isinstance(body, dict) or "workload" not in body:
        raise InvalidRequestError(
            "request body needs at least {'workload': <name>}"
        )
    data = dict(body)
    data.setdefault("technique", "baseline")
    data.setdefault("sweep", [])
    # Hand-written bodies may name a preset ("config": "volta" or
    # nothing) instead of shipping a full GPUConfig dict.
    config = data.get("config", "volta")
    if isinstance(config, str):
        if config not in PRESETS:
            raise InvalidRequestError(
                f"unknown config preset {config!r}; "
                f"one of: {', '.join(sorted(PRESETS))}"
            )
        data["config"] = PRESETS[config].to_dict()
    try:
        return ExperimentRequest.from_dict(data)
    except Exception as exc:
        raise InvalidRequestError(
            f"request body does not describe an experiment: {exc}"
        ) from exc


class ServiceServer:
    """One listening socket bound to one :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 8642,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # Created in start(): 3.9 binds asyncio.Event to the loop at
        # construction time.
        self.__shutdown: Optional[asyncio.Event] = None

    @property
    def _shutdown(self) -> asyncio.Event:
        if self.__shutdown is None:
            self.__shutdown = asyncio.Event()
        return self.__shutdown

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        addr = self._server.sockets[0].getsockname()
        self.port = addr[1]

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT (drains) or :meth:`shutdown`."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._shutdown.set)
                except (NotImplementedError, RuntimeError):
                    pass  # non-unix / nested loop
        await self._shutdown.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()

    # -- request plumbing -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            keep_alive = True
            while keep_alive:
                try:
                    parsed = await self._read_request(reader)
                except InvalidRequestError as exc:
                    # Where the body ends is unknown, so no later request
                    # on this connection can be found: refuse and close.
                    status, payload = _error_reply(exc)
                    keep_alive = False
                else:
                    if parsed is None:
                        break
                    status, payload = await self._dispatch(*parsed)
                blob = json.dumps(payload).encode()
                writer.write(
                    (
                        f"HTTP/1.1 {status} "
                        f"{_REASONS.get(status, 'Unknown')}\r\n"
                        f"Content-Type: application/json\r\n"
                        f"Content-Length: {len(blob)}\r\n"
                        f"Connection: "
                        f"{'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                    ).encode()
                )
                writer.write(blob)
                await writer.drain()
        except (
            asyncio.IncompleteReadError, ConnectionError, asyncio.LimitOverrunError
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """The next request on *reader*, or ``None`` at its end.

        Raises :class:`InvalidRequestError` when the body cannot be
        framed: a ``Transfer-Encoding`` header, or a ``Content-Length``
        that is not a non-negative integer up to :data:`_MAX_BODY`.
        """
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise InvalidRequestError(
                "Transfer-Encoding is not supported; send Content-Length"
            )
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise InvalidRequestError(
                f"Content-Length {length!r} is not a non-negative integer"
            )
        if int(length) > _MAX_BODY:
            raise InvalidRequestError(
                f"Content-Length {length} exceeds the {_MAX_BODY}-byte limit"
            )
        body = await reader.readexactly(int(length))
        return method, path, headers, body

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> Tuple[int, Dict[str, Any]]:
        service = self.service
        try:
            data: Dict[str, Any] = {}
            if body:
                try:
                    data = json.loads(body.decode())
                except ValueError as exc:
                    raise InvalidRequestError(
                        f"body is not JSON: {exc}"
                    ) from exc
            tenant = (
                data.get("tenant")
                or headers.get("x-repro-tenant")
                or "default"
            )
            path = path.split("?", 1)[0].rstrip("/") or "/"

            if path == "/v1/health" and method == "GET":
                return 200, service.health()
            if path == "/v1/ready" and method == "GET":
                report = service.ready()
                return (200 if report["ready"] else 503), report
            if path == "/v1/stats" and method == "GET":
                return 200, service.stats()
            if path == "/v1/drain" and method == "POST":
                asyncio.ensure_future(self._drain_then_exit())
                return 202, {"draining": True}
            if path == "/v1/jobs" and method == "POST":
                record = service.submit(
                    tenant,
                    _parse_request_body(data.get("request", {})),
                    deadline_s=data.get("deadline_s"),
                )
                return 202, {"job_id": record.job_id,
                             "state": record.state.value}
            if path == "/v1/plans" and method == "POST":
                requests = data.get("requests")
                if not isinstance(requests, list) or not requests:
                    raise InvalidRequestError(
                        "plan body needs a non-empty 'requests' list"
                    )
                parsed = [_parse_request_body(r) for r in requests]
                job_ids = [
                    service.submit(
                        tenant, request, deadline_s=data.get("deadline_s")
                    ).job_id
                    for request in parsed
                ]
                return 202, {"job_ids": job_ids}
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/"):]
                if rest.endswith("/result") and method == "GET":
                    job_id = rest[: -len("/result")]
                    result = service.result(job_id)
                    return 200, {"job_id": job_id,
                                 "result": result.to_dict()}
                if "/" not in rest:
                    if method == "GET":
                        return 200, _record_payload(service, rest)
                    if method == "DELETE":
                        record = service.cancel(rest)
                        return 200, {"job_id": record.job_id,
                                     "state": record.state.value}
            raise JobNotFoundError(f"no route for {method} {path}")
        except ServiceError as exc:
            return _error_reply(exc)
        except Exception as exc:  # never let a handler kill the server
            return 500, {"error": {
                "code": "internal", "message": repr(exc), "status": 500,
            }}

    async def _drain_then_exit(self) -> None:
        self._shutdown.set()


def serve(
    config: Optional[ServiceConfig] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    ready_callback: Optional[Callable[[ServiceServer], None]] = None,
) -> None:
    """Blocking entry point behind ``repro serve``.

    Tunes the interpreter for serving while it runs: a short GIL switch
    interval (:data:`_SWITCH_INTERVAL_S`), and everything startup built
    (imports, the recovered job table) moved out of the cyclic garbage
    collector, whose full passes over it held the GIL for ~20 ms.
    """

    async def main() -> None:
        server = ServiceServer(
            SimulationService(config), host=host, port=port
        )
        await server.start()
        gc.freeze()
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            f"(journal: {server.service.journal.directory}, "
            f"store: {server.service.store.root})",
            flush=True,
        )
        if ready_callback is not None:
            ready_callback(server)
        await server.serve_forever()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(_SWITCH_INTERVAL_S)
    try:
        asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
        gc.unfreeze()
