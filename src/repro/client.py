"""Blocking HTTP client for the simulation-service gateway.

Pure stdlib (``http.client``): the synchronous counterpart of
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
for exactly as long as the scheduler suggested rather than guessing.

Connections are persistent: each thread using a client keeps one idle
HTTP/1.1 connection to the gateway and sends its next request on it, so
a cache hit costs no TCP set-up; :meth:`ServiceClient.close` (or a
``with`` block) closes them.  A connection the gateway has closed while
idle (its read timeout) is noticed before the next request is sent and
replaced.  If a reused connection fails before any response byte, a GET
or DELETE is sent once more on a fresh connection; a POST never is,
because the gateway could have read it.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.api.spec import ExperimentSpec
from repro.service.events import JobCancelled, JobCompleted, JobEvent, JobFailed
from repro.service.fairness import DEFAULT_CLIENT_ID
from repro.service.manager import JobCancelledError
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
    "ServiceClient",
    "ServiceClientError",
    "ServiceRejectedError",
]


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
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._host = parts.hostname
        self._port = parts.port
        self._prefix = parts.path
        #: Per thread (by ident): the idle connection its next request uses.
        self._idle: Dict[int, http.client.HTTPConnection] = {}
        self._idle_lock = threading.Lock()

    # -------------------------------------------------------------- verbs
    def submit(
        self, spec: ExperimentSpec, *, priority: int = 0
    ) -> SubmitAccepted:
        """``POST /v1/jobs``; raises :class:`ServiceRejectedError` on 429."""
        request = SubmitRequest(
            spec=spec, priority=priority, client_id=self.client_id
        )
        status, document = self._request(
            "POST", "/v1/jobs", body=request.to_wire()
        )
        if status == 429:
            raise ServiceRejectedError(SubmitRejected.from_wire(document))
        if status != 202:
            raise ServiceClientError(status, _error_text(document))
        return SubmitAccepted.from_wire(document)

    def status(self, job_id: str) -> JobStatus:
        """``GET /v1/jobs/{id}``."""
        status, document = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise ServiceClientError(status, _error_text(document))
        return JobStatus.from_wire(document)

    def cancel(self, job_id: str) -> CancelResponse:
        """``DELETE /v1/jobs/{id}``."""
        status, document = self._request("DELETE", f"/v1/jobs/{job_id}")
        if status != 200:
            raise ServiceClientError(status, _error_text(document))
        return CancelResponse.from_wire(document)

    def stream(self, job_id: str) -> Iterator[JobEvent]:
        """``GET /v1/jobs/{id}/events`` as typed events (NDJSON transport).

        Replays the job's full history from ``JobAdmitted`` and follows
        live until (and including) the terminal event; connecting after
        the job finished yields the identical complete sequence.
        """
        connection, response = self._send("GET", f"/v1/jobs/{job_id}/events")
        if response.status != 200:
            document = self._read_reply(connection, response)
            raise ServiceClientError(response.status, _error_text(document))
        released = False
        try:
            for line in response:
                text = line.strip()
                if not text:
                    continue
                event = event_from_wire(json.loads(text.decode("utf-8")))
                if event.terminal:
                    # Read the zero chunk now: a caller that stops at the
                    # terminal event leaves the connection reusable.
                    response.read()
                    self._release(connection)
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
        """Follow the event stream to completion and return the result.

        Raises :class:`~repro.service.manager.JobCancelledError` if the
        job was cancelled and :class:`ServiceClientError` if it failed.
        """
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
        """Submit and wait; optionally honour 429 back-offs ``retries`` times."""
        for attempt in range(retries + 1):
            try:
                accepted = self.submit(spec, priority=priority)
            except ServiceRejectedError:
                if attempt >= retries:
                    raise
                time.sleep(self._last_retry_after())
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
        """``GET /v1/metrics`` (the schema-v3 snapshot)."""
        status, document = self._request("GET", "/v1/metrics")
        if status != 200:
            raise ServiceClientError(status, _error_text(document))
        return document

    # ----------------------------------------------------------- plumbing
    def _last_retry_after(self) -> float:
        # Overridden in tests; default to a short, bounded pause.
        return 0.05

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
        self,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
    ) -> Dict[str, Any]:
        """Read a JSON response body, then hand the connection back."""
        try:
            document = _read_json(response)
        except BaseException:
            connection.close()
            raise
        self._release(connection)
        return document

    def _send(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; returns its connection and the response, with
        the headers read.  Hand the connection to ``_release`` once the
        body has been read; any failure closes it instead."""
        data = (
            json.dumps(body, sort_keys=True).encode("utf-8")
            if body is not None
            else None
        )
        headers = {"Content-Type": "application/json"} if data else {}
        with self._idle_lock:
            connection = self._idle.pop(threading.get_ident(), None)
        if connection is not None and _closed_by_peer(connection):
            connection.close()
            connection = None
        if connection is None:
            return self._exchange(self._connect(), method, path, data, headers)
        try:
            return self._exchange(connection, method, path, data, headers)
        except ConnectionError:
            if method == "POST":
                raise
        # The reused connection was closed before any response byte.
        return self._exchange(self._connect(), method, path, data, headers)

    def _exchange(
        self,
        connection: http.client.HTTPConnection,
        method: str,
        path: str,
        data: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        try:
            connection.request(method, self._prefix + path, data, headers)
            return connection, connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _connect(self) -> http.client.HTTPConnection:
        return self._connection_class(self._host, self._port, timeout=self.timeout)

    def _release(self, connection: http.client.HTTPConnection) -> None:
        """Keep a connection whose response is fully read for the next
        request of this thread (unless the gateway closed it)."""
        if connection.sock is not None:
            with self._idle_lock:
                kept = self._idle.setdefault(threading.get_ident(), connection)
            if kept is connection:
                return
        connection.close()


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """An idle connection with something to read has been closed (or
    broken) by the peer: a server sends nothing unasked."""
    readable, _, _ = select.select([connection.sock], [], [], 0)
    return bool(readable)


def _read_json(response: Any) -> Dict[str, Any]:
    raw = response.read()
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return {"error": raw.decode("utf-8", errors="replace")}
    return document if isinstance(document, dict) else {"error": repr(document)}


def _error_text(document: Dict[str, Any]) -> str:
    return str(document.get("error", document))
