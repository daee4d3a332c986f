"""HTTP gateway in front of :class:`~repro.service.manager.JobManager`.

Stdlib-only (``asyncio`` streams, no web framework), speaking the typed
wire vocabulary of :mod:`repro.service.wire`:

===========  =========================  =========================================
Method       Path                       Meaning
===========  =========================  =========================================
``POST``     ``/v1/jobs``               submit a :class:`~repro.service.wire.SubmitRequest`;
                                        ``202`` + ``SubmitAccepted`` (carrying the
                                        result when every replica was a cache hit),
                                        or ``429`` + ``SubmitRejected`` with a
                                        ``Retry-After`` header
``GET``      ``/v1/jobs/{id}``          ``JobStatus`` (state, progress, merged result)
``DELETE``   ``/v1/jobs/{id}``          cancel; ``CancelResponse``
``GET``      ``/v1/jobs/{id}/events``   the job's NDJSON event stream (the three
                                        job routes answer ``410`` for a finished
                                        job the manager no longer holds)
``GET``      ``/v1/health``             the manager's degradation report
``GET``      ``/v1/metrics``            the schema-v4 metrics snapshot
===========  =========================  =========================================

Connections are persistent (HTTP/1.1 keep-alive): one socket serves
request after request until the client sends ``Connection: close`` or
speaks HTTP/1.0, or the gateway answers a framing error (``400``/``413``)
or a ``500``.  On a kept-alive connection an event stream uses
``Transfer-Encoding: chunked`` (one chunk per event line, the zero chunk
after the terminal event), so it does not end its connection either;
otherwise the stream's body runs until the gateway closes the
connection, which is how an HTTP/1.0 client reads it.  A stream writes
each batch of available events -- the head with the first, the zero
chunk with the terminal event -- in one write, so a finished job's whole
stream is one write.  Any ``Upgrade`` header is ignored: an event stream
is always NDJSON.  Reading one request -- including the idle wait before
it -- is bounded by :data:`READ_TIMEOUT_S`; a client that stays silent
or half-sends a request longer than that has its connection closed.

Event streams are **replayable**: each
:class:`~repro.service.manager.JobHandle` keeps its event log, and a
stream request replays it and then follows live, so any number of stream
requests -- connecting at any time, even after the job finished -- see
the identical full sequence from ``JobAdmitted`` through the terminal
event.  The gateway keeps no per-job state of its own.

Finished jobs are held only up to
:data:`~repro.service.manager.RETAINED_TERMINAL_JOBS`, oldest dropped
first.  A dropped job's id answers ``410 Gone`` on every job route; its
result stays reachable by resubmitting the same spec, which the result
cache answers as a hit.  An id the manager never issued stays ``404``.

:class:`ServerThread` hosts a manager plus gateway on a dedicated thread
with its own event loop, which is what lets the *blocking*
:class:`repro.client.ServiceClient` drive a gateway from synchronous code
(tests, the ``service-mix`` benchmark).
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.service.manager import (
    AdmissionError,
    JobHandle,
    JobManager,
    JobState,
)
from repro.service.wire import (
    CancelResponse,
    JobStatus,
    SubmitAccepted,
    SubmitRejected,
    SubmitRequest,
    WireError,
    error_to_wire,
    event_to_wire,
)

#: Largest request body the gateway will read (a spec document is tiny).
MAX_BODY_BYTES = 1 << 20

#: Longest request line or header line, terminator included.
MAX_LINE_BYTES = 8192

#: Most header lines one request may carry.
MAX_HEADERS = 100

#: Longest wait, in seconds, for one whole request: the idle time before
#: its first byte on a kept-alive connection, plus its head and body.
READ_TIMEOUT_S = 30.0

_JSON_HEADERS = (("Content-Type", "application/json"),)

#: What a non-streaming route answers: status, JSON document, extra headers.
_Reply = Tuple[int, Dict[str, Any], Tuple[Tuple[str, str], ...]]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _Request(NamedTuple):
    """One parsed HTTP request."""

    method: str
    path: str
    body: bytes
    #: HTTP/1.1 without ``Connection: close``: the socket serves another
    #: request after this one.
    keep_alive: bool


class _FramingError(Exception):
    """Bytes that do not frame as a request; the stream cannot resync."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class GatewayServer:
    """The asyncio HTTP front-end of one job manager.

    The manager must already be started (workers running) and stays owned
    by the caller; the gateway only owns its listening socket and open
    connections.
    """

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting and close open connections.

        Open connections are closed before ``wait_closed``, which (from
        Python 3.12) waits for them: an idle keep-alive client would
        otherwise hold shutdown open.
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._writers):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc_info: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------- plumbing
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it is not kept alive."""
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        try:
            while True:
                timer = loop.call_later(READ_TIMEOUT_S, _end_reading, reader, writer)
                try:
                    request = await _read_request(reader)
                except _FramingError as error:
                    _write_response(
                        writer,
                        error.status,
                        error_to_wire(error.status, str(error)),
                        close=True,
                    )
                    break
                finally:
                    timer.cancel()
                if request is None:
                    break
                reply = await self._dispatch(request, writer)
                if reply is not None:
                    status, document, extra_headers = reply
                    _write_response(
                        writer,
                        status,
                        document,
                        extra_headers=extra_headers,
                        close=not request.keep_alive,
                    )
                await writer.drain()
                if not request.keep_alive:
                    break
        except ConnectionError:
            pass
        except Exception as error:  # defensive: one bad request, one 500
            try:
                _write_response(
                    writer,
                    500,
                    error_to_wire(500, f"internal error: {error!r}"),
                    close=True,
                )
            except Exception:
                pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> Optional[_Reply]:
        """Route one request: the reply to write, or ``None`` when an
        event-stream route already wrote its own response."""
        method, path = request.method, request.path
        if path == "/v1/jobs":
            if method != "POST":
                return _error(405, f"{method} not allowed here")
            return await self._submit(request.body)
        if path == "/v1/health" and method == "GET":
            return 200, self.manager.health(), ()
        if path == "/v1/metrics" and method == "GET":
            return 200, self.manager.snapshot(), ()
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/events"):
                if method != "GET":
                    return _error(405, "events are GET-only")
                return await self._events(rest[: -len("/events")], request, writer)
            handle = self.manager.get_job(rest)
            if handle is None:
                return self._unknown_job(rest)
            if method == "GET":
                return 200, (await _status_of(handle)).to_wire(), ()
            if method == "DELETE":
                cancelled = handle.cancel()
                response = CancelResponse(
                    job_id=handle.job_id,
                    cancelled=cancelled,
                    state=handle.state.value,
                )
                return 200, response.to_wire(), ()
            return _error(405, f"{method} not allowed here")
        return _error(404, f"no route for {path!r}")

    def _unknown_job(self, job_id: str) -> _Reply:
        """410 for a finished job the manager has dropped, else 404."""
        if self.manager.evicted(job_id):
            return _error(
                410,
                f"job {job_id!r} finished and is no longer held; resubmit "
                "the same spec to get its result from the result cache as a hit",
            )
        return _error(404, f"no such job {job_id!r}")

    # --------------------------------------------------------------- routes
    async def _submit(self, body: bytes) -> _Reply:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _error(400, f"request body is not JSON: {error}")
        try:
            request = SubmitRequest.from_wire(document)
        except WireError as error:
            return _error(400, str(error))
        try:
            handle = await self.manager.submit_async(
                request.spec,
                priority=request.priority,
                client_id=request.client_id,
            )
        except AdmissionError as error:
            rejection = SubmitRejected(
                pending_cost=error.pending_cost,
                budget=error.budget,
                retry_after_s=error.retry_after_s,
            )
            retry_after = str(max(1, math.ceil(error.retry_after_s)))
            return 429, rejection.to_wire(), (("Retry-After", retry_after),)
        result = None
        if handle.state is JobState.COMPLETED:
            result = await handle.result()
        accepted = SubmitAccepted(
            job_id=handle.job_id,
            label=handle.spec.label,
            total_replicas=handle.total_replicas,
            priority=handle.priority,
            client_id=handle.client_id,
            result=result,
        )
        return 202, accepted.to_wire(), ()

    async def _events(
        self, job_id: str, request: _Request, writer: asyncio.StreamWriter
    ) -> Optional[_Reply]:
        handle = self.manager.get_job(job_id)
        if handle is None:
            return self._unknown_job(job_id)
        await _write_events(writer, handle, chunked=request.keep_alive)
        return None


async def _write_events(
    writer: asyncio.StreamWriter, handle: JobHandle, *, chunked: bool
) -> None:
    """Stream ``handle``'s events as NDJSON, one JSON line per event.

    ``chunked``: one chunk per line and the zero chunk after the terminal
    event, so the connection survives; otherwise the body runs until the
    connection closes.  Each batch of available events is one write and
    one drain (the head goes with the first batch), so a finished job's
    stream is one write.
    """
    framing = b"Transfer-Encoding: chunked" if chunked else b"Connection: close"
    out = [
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        + framing
        + b"\r\n\r\n"
    ]
    async for batch in handle.batches():
        for event in batch:
            line = json.dumps(event_to_wire(event), sort_keys=True).encode("utf-8")
            if chunked:
                out.append(b"%x\r\n%s\n\r\n" % (len(line) + 1, line))
            else:
                out.append(line + b"\n")
        if batch[-1].terminal and chunked:
            out.append(b"0\r\n\r\n")
        writer.write(b"".join(out))
        out = []
        await writer.drain()


# ---------------------------------------------------------- HTTP plumbing
async def _read_request(reader: asyncio.StreamReader) -> Optional[_Request]:
    """Parse one HTTP/1.x request; ``None`` if the connection closed first.

    Raises :class:`_FramingError` (a 400 or 413) for bytes that do not
    frame as a request this gateway reads.
    """
    try:
        line = await _read_line(reader)
        if not line.strip() or not line.endswith(b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _FramingError(400, f"malformed request line {line[:80]!r}")
        method, target, version = parts
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADERS + 1):
            line = await _read_line(reader)
            if not line.endswith(b"\n"):
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise _FramingError(400, f"header line without a colon {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _FramingError(400, f"more than {MAX_HEADERS} header lines")
        if "transfer-encoding" in headers:
            raise _FramingError(400, "a request body needs Content-Length")
        length_text = headers.get("content-length", "0")
        if not (length_text.isascii() and length_text.isdigit()):
            raise _FramingError(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _FramingError(
                413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    connection = headers.get("connection", "").lower()
    tokens = {token.strip() for token in connection.split(",")}
    keep_alive = version != "HTTP/1.0" and "close" not in tokens
    return _Request(method.upper(), target.split("?", 1)[0], body, keep_alive)


def _end_reading(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """The read timeout: stop reading and end the stream.

    Bytes already received still parse, so a request that arrived while
    the loop was busy (a slow handler) is served; an idle or
    incomplete one reads as end of stream and the connection closes.
    """
    writer.transport.pause_reading()
    reader.feed_eof()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's limit
        raise _FramingError(
            400, f"request or header line longer than {MAX_LINE_BYTES} bytes"
        ) from None


def _error(status: int, message: str) -> _Reply:
    return status, error_to_wire(status, message), ()


def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    document: Dict[str, Any],
    *,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
    close: bool = False,
) -> None:
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = [f"HTTP/1.1 {status} {reason}"]
    for name, value in _JSON_HEADERS + extra_headers:
        head.append(f"{name}: {value}")
    head.append(f"Content-Length: {len(body)}")
    if close:
        head.append("Connection: close")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)


async def _status_of(handle: JobHandle) -> JobStatus:
    """The ``GET /v1/jobs/{id}`` view of one handle."""
    result = None
    error: Optional[str] = None
    if handle.state is JobState.COMPLETED:
        result = await handle.result()
    elif handle.state in (JobState.CANCELLED, JobState.FAILED):
        try:
            await handle.result()
        except Exception as failure:
            error = str(failure)
    return JobStatus(
        job_id=handle.job_id,
        state=handle.state.value,
        label=handle.spec.label,
        client_id=handle.client_id,
        priority=handle.priority,
        completed_replicas=handle.completed_replicas,
        total_replicas=handle.total_replicas,
        result=result,
        error=error,
    )


# ------------------------------------------------------------ thread host
class ServerThread:
    """A manager + gateway on a dedicated thread with its own event loop.

    The synchronous host for the blocking :class:`repro.client.ServiceClient`::

        with ServerThread(jobs=1, client_weights={"a": 2, "b": 1}) as server:
            client = ServiceClient(server.base_url, client_id="a")
            accepted = client.submit(spec)
            result = client.wait(accepted.job_id)

    ``manager_kwargs`` pass straight to :class:`JobManager`, which is
    constructed *inside* the serving thread so every asyncio primitive
    binds to the right loop.  ``call`` / ``run`` marshal work onto that
    loop for cross-thread introspection (pausing the scheduler, reading
    metrics) without data races.
    """

    def __init__(self, *, host: str = "127.0.0.1", **manager_kwargs: Any) -> None:
        self.host = host
        self._manager_kwargs = manager_kwargs
        self.port: Optional[int] = None
        self.manager: Optional[JobManager] = None
        self.gateway: Optional[GatewayServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        if self.port is None:
            raise RuntimeError("server is not running")
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        assert self.loop is not None and self._stop is not None
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc_info: Any) -> None:
        self.stop()

    async def _serve(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.manager = JobManager(**self._manager_kwargs)
            await self.manager.start()
            self.gateway = GatewayServer(self.manager, host=self.host)
            await self.gateway.start()
            self.port = self.gateway.port
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop.wait()
        await self.gateway.aclose()
        await self.manager.aclose()

    # --------------------------------------------------------- marshalling
    def run(self, coroutine: Awaitable[Any]) -> Any:
        """Run ``coroutine`` on the server loop; blocks for the result."""
        assert self.loop is not None
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def call(self, function: Callable[[], Any]) -> Any:
        """Run a plain callable on the server loop thread; blocks."""

        async def _invoke() -> Any:
            return function()

        return self.run(_invoke())
