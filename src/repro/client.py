"""Blocking HTTP client for the simulation-service gateway.

Pure stdlib: the synchronous counterpart of
:class:`repro.service.server.GatewayServer`, speaking the typed wire
vocabulary of :mod:`repro.service.wire` end to end::

    from repro.api import ExperimentSpec
    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8642", client_id="nightly")
    accepted = client.submit(ExperimentSpec.make("oltp", scale=0.1))
    for event in client.stream(accepted.job_id):
        print(event)
    result = client.wait(accepted.job_id)

Results obtained through the gateway are **bit-identical** to a direct
:func:`repro.api.run_experiment` call with the same spec: the wire format
round-trips every ``RunResult`` field JSON-exactly (see
:mod:`repro.service.cache`), which the end-to-end tests assert.

An admission rejection (HTTP 429) raises :class:`ServiceRejectedError`
carrying the server's ``retry_after_s`` estimate, so callers can back off
for exactly as long as the scheduler suggested rather than guessing;
``run(spec, retries=N)`` sleeps that long before each resubmission.
The gateway keeps a bounded number of finished jobs; a job route on one
it has dropped (HTTP 410) raises :class:`JobGoneError`, and resubmitting
the same spec returns its result from the result cache.

The transport is a small HTTP/1.1 client on a plain socket
(``TCP_NODELAY`` set; wrapped in TLS for ``https`` URLs).  Each request,
head and body, is built as one ``bytes`` and sent with one ``sendall``;
a response's status line and headers are read from a buffered reader,
and its body is framed by ``Content-Length`` or chunked encoding.  A
response that ends early -- an empty status line, a body shorter than
its framing -- raises :class:`ConnectionError` and its connection is
discarded.

A cache hit is one round trip.  A job whose every replica came from
the result cache is complete when the gateway answers its submission,
and that ``202`` carries the merged result.  Each thread keeps the
result of its latest submission until it waits for that job, and
:meth:`ServiceClient.wait` then returns it without sending a request.
Any other job -- a miss, a job cancelled or failed, one submitted
before the thread's latest submission, or one from a gateway that sends
no result -- is waited for on its event stream.

Connections are persistent: each thread using a client keeps one idle
HTTP/1.1 connection to the gateway and sends its next request on it, so
a cache hit costs no TCP set-up; :meth:`ServiceClient.close` (or a
``with`` block) closes them.  Each time the client opens a new
connection, it first closes those of threads that have exited and drops
their kept results, so a client shared by many short-lived threads does
not accumulate sockets.  A response carrying ``Connection: close``
is not kept.  A connection the gateway has closed while idle (its read
timeout) is noticed before the next request is sent and replaced.  If a
reused connection fails before any response byte, a GET or DELETE is
sent once more on a fresh connection; a POST never is, because the
gateway could have read it.
"""

from __future__ import annotations

import json
import select
import socket
import ssl
import threading
import time
import urllib.parse
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple

from repro.api.spec import ExperimentSpec
from repro.service.events import (
    DEFAULT_CLIENT_ID,
    JobCancelled,
    JobCancelledError,
    JobCompleted,
    JobEvent,
    JobFailed,
)
from repro.service.wire import (
    CancelResponse,
    JobStatus,
    SubmitAccepted,
    SubmitRejected,
    SubmitRequest,
    event_from_wire,
)
from repro.system.results import RunResult

__all__ = [
    "JobGoneError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceRejectedError",
]

#: Longest status, header or chunk-size line read from a response.
_MAX_LINE_BYTES = 65536

#: Most header lines one response may carry.
_MAX_HEADERS = 100

_HEX_DIGITS = b"0123456789abcdefABCDEF"

#: The empty line that ends a head (or a chunked body's trailer).
_BLANK = (b"\r\n", b"\n")


class ServiceClientError(RuntimeError):
    """The gateway answered with an error (or an unparseable response)."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceRejectedError(ServiceClientError):
    """Admission control rejected the submission (HTTP 429)."""

    def __init__(self, rejection: SubmitRejected):
        self.rejection = rejection
        self.retry_after_s = rejection.retry_after_s
        super().__init__(
            429,
            f"admission rejected (pending cost {rejection.pending_cost} over "
            f"budget {rejection.budget}); retry after {rejection.retry_after_s:.2f}s",
        )


class JobGoneError(ServiceClientError):
    """The job finished and the gateway no longer holds it (HTTP 410).

    Resubmitting the same spec returns its result from the result cache.
    """

    def __init__(self, message: str):
        super().__init__(410, message)


class ServiceClient:
    """One client identity talking to one gateway.

    ``client_id`` names the deficit-round-robin lane every submission from
    this client is scheduled in; weights are server-side configuration
    (``--client-weight`` on the CLI), so the client only has to be
    consistent about its name.
    """

    def __init__(
        self,
        base_url: str,
        *,
        client_id: str = DEFAULT_CLIENT_ID,
        timeout: float = 120.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.client_id = client_id
        self.timeout = timeout
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._tls: Optional[ssl.SSLContext] = None
        if parts.scheme == "https":
            self._tls = ssl.create_default_context()
        self._host = parts.hostname
        self._port = parts.port or (80 if self._tls is None else 443)
        self._authority = parts.netloc.rpartition("@")[2]
        self._prefix = parts.path
        #: Per thread (by ident): the idle connection its next request uses.
        self._idle: Dict[int, _Connection] = {}
        self._idle_lock = threading.Lock()
        #: Per thread (by ident): ``(job_id, result)`` of its latest
        #: submission, when the ``202`` carried the result.
        self._completed: Dict[int, Tuple[str, RunResult]] = {}

    # -------------------------------------------------------------- verbs
    def submit(self, spec: ExperimentSpec, *, priority: int = 0) -> SubmitAccepted:
        """``POST /v1/jobs``; raises :class:`ServiceRejectedError` on 429."""
        request = SubmitRequest(spec=spec, priority=priority, client_id=self.client_id)
        status, document = self._request("POST", "/v1/jobs", body=request.to_wire())
        if status == 429:
            raise ServiceRejectedError(SubmitRejected.from_wire(document))
        if status != 202:
            raise ServiceClientError(status, _error_text(document))
        accepted = SubmitAccepted.from_wire(document)
        ident = threading.get_ident()
        if accepted.result is None:
            self._completed.pop(ident, None)
        else:
            self._completed[ident] = (accepted.job_id, accepted.result)
        return accepted

    def status(self, job_id: str) -> JobStatus:
        """``GET /v1/jobs/{id}``; raises :class:`JobGoneError` on 410."""
        status, document = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise _job_error(status, document)
        return JobStatus.from_wire(document)

    def cancel(self, job_id: str) -> CancelResponse:
        """``DELETE /v1/jobs/{id}``; raises :class:`JobGoneError` on 410."""
        status, document = self._request("DELETE", f"/v1/jobs/{job_id}")
        if status != 200:
            raise _job_error(status, document)
        return CancelResponse.from_wire(document)

    def stream(self, job_id: str) -> Iterator[JobEvent]:
        """``GET /v1/jobs/{id}/events`` as typed events (NDJSON transport).

        Replays the job's full history from ``JobAdmitted`` and follows
        live until (and including) the terminal event; connecting after
        the job finished yields the identical complete sequence, until
        the gateway drops the finished job (:class:`JobGoneError`).
        """
        connection, response = self._send("GET", f"/v1/jobs/{job_id}/events")
        if response.status != 200:
            document = self._read_reply(connection, response)
            raise _job_error(response.status, document)
        lines = response.lines()
        released = False
        try:
            for line in lines:
                text = line.strip()
                if not text:
                    continue
                event = event_from_wire(json.loads(text.decode("utf-8")))
                if event.terminal:
                    # Read the zero chunk now: a caller that stops at the
                    # terminal event leaves the connection reusable.
                    for _rest in lines:
                        pass
                    self._release(connection, response)
                    released = True
                yield event
                if released:
                    return
        finally:
            # Abandoned mid-body (or failed): the connection cannot carry
            # another request.
            if not released:
                connection.close()

    def wait(self, job_id: str) -> RunResult:
        """The job's result.

        The first wait on this thread's latest submission, if that job
        completed at admission, returns the result its ``202`` carried
        and sends no request; any other wait follows the job's event
        stream to its terminal event.

        Raises :class:`~repro.service.events.JobCancelledError` (the
        class the job manager raises) if the job was cancelled,
        :class:`JobGoneError` if the gateway no longer holds it, and
        :class:`ServiceClientError` if it failed.
        """
        ident = threading.get_ident()
        completed = self._completed.get(ident)
        if completed is not None and completed[0] == job_id:
            del self._completed[ident]
            return completed[1]
        for event in self.stream(job_id):
            if isinstance(event, JobCompleted):
                return event.result
            if isinstance(event, JobCancelled):
                raise JobCancelledError(job_id)
            if isinstance(event, JobFailed):
                raise ServiceClientError(500, f"job {job_id} failed: {event.error}")
        raise ServiceClientError(500, f"event stream of {job_id} ended early")

    def run(
        self,
        spec: ExperimentSpec,
        *,
        priority: int = 0,
        retries: int = 0,
    ) -> RunResult:
        """Submit and wait.

        On a 429, resubmit up to ``retries`` times, each after sleeping
        the rejection's ``retry_after_s``.
        """
        for attempt in range(retries + 1):
            try:
                accepted = self.submit(spec, priority=priority)
            except ServiceRejectedError as rejection:
                if attempt >= retries:
                    raise
                time.sleep(rejection.retry_after_s)
                continue
            return self.wait(accepted.job_id)
        raise AssertionError("unreachable: the retry loop returns or raises")

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``."""
        status, document = self._request("GET", "/v1/health")
        if status != 200:
            raise ServiceClientError(status, _error_text(document))
        return document

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` (the schema-v4 snapshot)."""
        status, document = self._request("GET", "/v1/metrics")
        if status != 200:
            raise ServiceClientError(status, _error_text(document))
        return document

    # ----------------------------------------------------------- plumbing
    def close(self) -> None:
        """Close every thread's idle connection; later requests reconnect."""
        with self._idle_lock:
            idle, self._idle = list(self._idle.values()), {}
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
    ) -> "tuple[int, Dict[str, Any]]":
        connection, response = self._send(method, path, body=body)
        return response.status, self._read_reply(connection, response)

    def _read_reply(
        self, connection: _Connection, response: _Response
    ) -> Dict[str, Any]:
        """Read a JSON response body, then hand the connection back."""
        try:
            raw = response.read()
        except BaseException:
            connection.close()
            raise
        self._release(connection, response)
        return _json_document(raw)

    def _send(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[_Connection, _Response]:
        """Send one request; returns its connection and the response, with
        the head read.  Hand the connection to ``_release`` once the body
        has been read; any failure closes it instead."""
        request = self._encode(method, path, body)
        with self._idle_lock:
            connection = self._idle.pop(threading.get_ident(), None)
        if connection is not None and connection.closed_by_peer():
            connection.close()
            connection = None
        if connection is None:
            self._forget_exited_threads()
            return _exchange(self._connect(), request)
        try:
            return _exchange(connection, request)
        except ConnectionError:
            if method == "POST":
                raise
        # The reused connection was closed before any response byte.
        return _exchange(self._connect(), request)

    def _forget_exited_threads(self) -> None:
        """Close the idle connections, and drop the kept results, of
        threads that have exited.  Runs only before a new connection is
        opened, so a thread reusing its connection never pays for it."""
        live = {thread.ident for thread in threading.enumerate()}
        for ident in list(self._completed):
            if ident not in live:
                self._completed.pop(ident, None)
        with self._idle_lock:
            exited = [ident for ident in self._idle if ident not in live]
            connections = [self._idle.pop(ident) for ident in exited]
        for connection in connections:
            connection.close()

    def _encode(self, method: str, path: str, body: Optional[Dict[str, Any]]) -> bytes:
        """One whole request, head and body, as the bytes to send."""
        target = self._prefix + path
        if not target.isprintable() or " " in target:
            raise ValueError(f"cannot send request target {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._authority}\r\n"
        if body is None:
            return (head + "\r\n").encode("latin-1")
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        head += f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
        return (head + "\r\n").encode("latin-1") + data

    def _connect(self) -> _Connection:
        sock = socket.create_connection((self._host, self._port), timeout=self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _release(self, connection: _Connection, response: _Response) -> None:
        """Keep a connection whose response is fully read for the next
        request of this thread (unless the response ends the connection)."""
        if response.reusable:
            with self._idle_lock:
                kept = self._idle.setdefault(threading.get_ident(), connection)
            if kept is connection:
                return
        connection.close()


# -------------------------------------------------------------- transport
class _Connection:
    """One HTTP/1.1 connection: its socket and a buffered reader on it."""

    __slots__ = ("sock", "reader")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")

    def closed_by_peer(self) -> bool:
        """An idle connection with something to read has been closed (or
        broken) by the peer: a server sends nothing unasked."""
        readable, _, _ = select.select([self.sock], [], [], 0)
        return bool(readable)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class _Response:
    """One response, its head read from ``reader``; read the body once,
    with :meth:`read` or :meth:`lines`."""

    __slots__ = ("status", "reusable", "_reader", "_chunked", "_length")

    def __init__(self, reader: BinaryIO) -> None:
        if not reader.peek(1):
            raise ConnectionError("the connection closed before a response")
        line = _read_line(reader)
        parts = line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/1.")
            or not (len(parts[1]) == 3 and parts[1].isdigit())
        ):
            raise ConnectionError(f"malformed status line {line[:80]!r}")
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = _read_line(reader)
            if line in _BLANK:
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise ConnectionError(f"more than {_MAX_HEADERS} response header lines")
        self.status = int(parts[1])
        self._reader = reader
        self._chunked = headers.get("transfer-encoding", "").lower() == "chunked"
        length = headers.get("content-length")
        self._length: Optional[int] = None
        if length is not None and not self._chunked:
            if not (length.isascii() and length.isdigit()):
                raise ConnectionError(f"bad Content-Length {length!r}")
            self._length = int(length)
        tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
        #: The connection can carry another request once the body is read.
        self.reusable = (
            parts[0] == b"HTTP/1.1"
            and "close" not in tokens
            and (self._chunked or self._length is not None)
        )

    def read(self) -> bytes:
        """The whole body."""
        return b"".join(self._parts())

    def lines(self) -> Iterator[bytes]:
        """The body's lines (without their newline), across any chunk
        boundaries."""
        pending = b""
        for part in self._parts():
            *complete, pending = (pending + part).split(b"\n")
            yield from complete
        if pending:
            yield pending

    def _parts(self) -> Iterator[bytes]:
        reader = self._reader
        if self._length is not None:
            yield _read_exactly(reader, self._length)
        elif not self._chunked:
            yield from reader  # the body runs until the connection closes
        else:
            while True:
                size_line = _read_line(reader)
                size_text = size_line.partition(b";")[0].strip()
                if not size_text or size_text.strip(_HEX_DIGITS):
                    raise ConnectionError(f"bad chunk size line {size_line[:80]!r}")
                size = int(size_text, 16)
                if size == 0:
                    while _read_line(reader) not in _BLANK:
                        pass  # a trailer field
                    return
                yield _read_exactly(reader, size)
                if _read_line(reader) not in _BLANK:
                    raise ConnectionError("chunk data longer than its size line")


def _exchange(connection: _Connection, request: bytes) -> Tuple[_Connection, _Response]:
    """Send ``request`` and read the response head; any failure closes
    the connection."""
    try:
        connection.sock.sendall(request)
        return connection, _Response(connection.reader)
    except BaseException:
        connection.close()
        raise


def _read_line(reader: BinaryIO) -> bytes:
    """The next whole response line; ConnectionError for a truncated (or
    overlong) one."""
    line = reader.readline(_MAX_LINE_BYTES)
    if not line.endswith(b"\n"):
        raise ConnectionError(f"response truncated mid-line {line[:80]!r}")
    return line


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionError(f"response body truncated at {len(data)} of {size} bytes")
    return data


def _json_document(raw: bytes) -> Dict[str, Any]:
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {"error": raw.decode("utf-8", errors="replace")}
    return document if isinstance(document, dict) else {"error": repr(document)}


def _error_text(document: Dict[str, Any]) -> str:
    return str(document.get("error", document))


def _job_error(status: int, document: Dict[str, Any]) -> ServiceClientError:
    """The error a job route's non-200 answer raises."""
    if status == 410:
        return JobGoneError(_error_text(document))
    return ServiceClientError(status, _error_text(document))
