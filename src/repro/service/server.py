"""HTTP/WebSocket gateway in front of :class:`~repro.service.manager.JobManager`.

Stdlib-only (``asyncio`` streams, no web framework), speaking the typed
wire vocabulary of :mod:`repro.service.wire`:

===========  =========================  =========================================
Method       Path                       Meaning
===========  =========================  =========================================
``POST``     ``/v1/jobs``               submit a :class:`~repro.service.wire.SubmitRequest`;
                                        ``202`` + ``SubmitAccepted``, or ``429`` +
                                        ``SubmitRejected`` with a ``Retry-After`` header
``GET``      ``/v1/jobs/{id}``          ``JobStatus`` (state, progress, merged result)
``DELETE``   ``/v1/jobs/{id}``          cancel; ``CancelResponse``
``GET``      ``/v1/jobs/{id}/events``   the job's event stream -- NDJSON by default,
                                        RFC 6455 WebSocket text frames when the
                                        request carries ``Upgrade: websocket``
``GET``      ``/v1/health``             the manager's degradation report
``GET``      ``/v1/metrics``            the schema-v3 metrics snapshot
===========  =========================  =========================================

Connections are persistent (HTTP/1.1 keep-alive): one socket serves
request after request until the client sends ``Connection: close`` or
speaks HTTP/1.0, upgrades to a WebSocket, or the gateway answers a
framing error (``400``/``413``) or a ``500``.  NDJSON event streams use
``Transfer-Encoding: chunked`` (one chunk per event line, the zero chunk
after the terminal event), so a stream does not end its connection
either.  A stream writes each batch of available events -- the head
with the first, the zero chunk with the terminal event -- in one write,
so a finished job's whole stream is one write.  Reading one request --
including the idle wait before it -- is bounded by
:data:`READ_TIMEOUT_S`; a client that stays silent or half-sends a
request longer than that has its connection closed.

Event streams are **replayable**: the gateway pumps each job's
single-consumer :meth:`~repro.service.manager.JobHandle.events` iterator
into a per-job record the moment the job is submitted, so any number of
stream requests -- connecting at any time, even after the job finished --
see the identical full sequence from ``JobAdmitted`` (or the lone
``JobCancelled`` of a cancel-before-admit race) through the terminal
event.

:class:`ServerThread` hosts a manager plus gateway on a dedicated thread
with its own event loop, which is what lets the *blocking*
:class:`repro.client.ServiceClient` drive a gateway from synchronous code
(tests, the ``--self-test`` loopback pass).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import struct
import threading
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.service.events import JobEvent
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

#: RFC 6455 magic GUID appended to ``Sec-WebSocket-Key`` in the handshake.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

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
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _Request(NamedTuple):
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    #: HTTP/1.1 with neither ``Connection: close`` nor a WebSocket
    #: upgrade: the socket serves another request after this one.
    keep_alive: bool


class _FramingError(Exception):
    """Bytes that do not frame as a request; the stream cannot resync."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _JobRecord:
    """One job's replayable event history plus its pump task."""

    def __init__(self, handle: JobHandle) -> None:
        self.handle = handle
        self.events: List[JobEvent] = []
        self.changed = asyncio.Condition()
        self.pump: Optional["asyncio.Task[None]"] = None

    async def run_pump(self) -> None:
        """Copy the handle's single-consumer stream into the record."""
        async for event in self.handle.events():
            async with self.changed:
                self.events.append(event)
                self.changed.notify_all()

    @property
    def done(self) -> bool:
        return bool(self.events) and self.events[-1].terminal

    async def batches(self) -> AsyncIterator[List[JobEvent]]:
        """Replay the history, then follow live until the terminal event.

        Each batch is every event not yet handed out, once there is at
        least one; the last batch ends with the terminal event.
        """
        index = 0
        while True:
            async with self.changed:
                while index >= len(self.events):
                    await self.changed.wait()
                batch = self.events[index:]
                index = len(self.events)
            yield batch
            if batch[-1].terminal:
                return


class GatewayServer:
    """The asyncio HTTP/WebSocket front-end of one job manager.

    The manager must already be started (workers running) and stays owned
    by the caller; the gateway only owns its listening socket and the
    per-job pump tasks.
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
        self._records: Dict[str, _JobRecord] = {}
        self._writers: Set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind and start serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        """Stop accepting, close open connections, cancel the event pumps.

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
        for record in self._records.values():
            if record.pump is not None and not record.pump.done():
                record.pump.cancel()
        pumps = [r.pump for r in self._records.values() if r.pump is not None]
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc_info: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------- plumbing
    def track(self, handle: JobHandle) -> _JobRecord:
        """Start pumping ``handle``'s events into a replayable record."""
        record = self._records.get(handle.job_id)
        if record is None:
            record = _JobRecord(handle)
            record.pump = asyncio.create_task(record.run_pump())
            self._records[handle.job_id] = record
        return record

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
            job_id = rest
            handle = self.manager.get_job(job_id)
            if handle is None:
                return _error(404, f"no such job {job_id!r}")
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
        self.track(handle)
        accepted = SubmitAccepted(
            job_id=handle.job_id,
            label=handle.spec.label,
            total_replicas=handle.total_replicas,
            priority=handle.priority,
            client_id=handle.client_id,
        )
        return 202, accepted.to_wire(), ()

    async def _events(
        self, job_id: str, request: _Request, writer: asyncio.StreamWriter
    ) -> Optional[_Reply]:
        handle = self.manager.get_job(job_id)
        if handle is None:
            return _error(404, f"no such job {job_id!r}")
        record = self.track(handle)
        if request.headers.get("upgrade", "").lower() == "websocket":
            return await self._events_websocket(record, request.headers, writer)
        await self._events_ndjson(record, writer, chunked=request.keep_alive)
        return None

    async def _events_ndjson(
        self, record: _JobRecord, writer: asyncio.StreamWriter, *, chunked: bool
    ) -> None:
        """One JSON line per event.  ``chunked``: one chunk per line and the
        zero chunk after the terminal event, so the connection survives;
        otherwise the body runs until the connection closes."""
        framing = b"Transfer-Encoding: chunked" if chunked else b"Connection: close"
        await _write_batches(
            writer,
            record,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
            + framing
            + b"\r\n\r\n",
            _ndjson_chunk if chunked else _ndjson_line,
            b"0\r\n\r\n" if chunked else b"",
        )

    async def _events_websocket(
        self,
        record: _JobRecord,
        headers: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Optional[_Reply]:
        key = headers.get("sec-websocket-key")
        if not key:
            return _error(400, "websocket upgrade without Sec-WebSocket-Key")
        accept = base64.b64encode(
            hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
        ).decode("ascii")
        await _write_batches(
            writer,
            record,
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {accept}\r\n\r\n"
            ).encode("ascii"),
            _ws_text_frame,
            _ws_frame(0x8, struct.pack("!H", 1000)),
        )
        return None


async def _write_batches(
    writer: asyncio.StreamWriter,
    record: _JobRecord,
    head: bytes,
    encode: Callable[[bytes], bytes],
    end: bytes,
) -> None:
    """Stream ``record``'s events: ``head``, each event's JSON document
    through ``encode``, and ``end`` after the terminal event.

    Each batch of available events is one write and one drain (the head
    goes with the first batch), so a finished job's stream is one write.
    """
    out = [head]
    async for batch in record.batches():
        for event in batch:
            document = json.dumps(event_to_wire(event), sort_keys=True)
            out.append(encode(document.encode("utf-8")))
        if batch[-1].terminal:
            out.append(end)
        writer.write(b"".join(out))
        out = []
        await writer.drain()


def _ndjson_chunk(line: bytes) -> bytes:
    """One event line as one HTTP chunk."""
    return b"%x\r\n%s\n\r\n" % (len(line) + 1, line)


def _ndjson_line(line: bytes) -> bytes:
    return line + b"\n"


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
    keep_alive = (
        version != "HTTP/1.0"
        and "close" not in tokens
        and headers.get("upgrade", "").lower() != "websocket"
    )
    return _Request(method.upper(), target.split("?", 1)[0], headers, body, keep_alive)


def _end_reading(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """The read timeout: stop reading and end the stream.

    Bytes already received still parse, so a request that arrived while
    the loop was busy (an inline replica computing) is served; an idle or
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


def _ws_text_frame(payload: bytes) -> bytes:
    return _ws_frame(0x1, payload)


def _ws_frame(opcode: int, payload: bytes) -> bytes:
    """One unmasked server-to-client WebSocket frame (FIN set)."""
    head = bytes([0x80 | opcode])
    length = len(payload)
    if length < 126:
        head += bytes([length])
    elif length < (1 << 16):
        head += bytes([126]) + struct.pack("!H", length)
    else:
        head += bytes([127]) + struct.pack("!Q", length)
    return head + payload


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
