"""HTTP/1.1 framing of the gateway on real sockets.

Persistent connections (several requests on one socket, from raw bytes
and from :class:`~repro.client.ServiceClient`), chunked NDJSON event
streams parsed by hand, the client's stale-connection and retry rules,
the 400/413 answers to malformed framing, the read timeout, and
shutdown with connections still open.
"""

from __future__ import annotations

import io
import itertools
import json
import socket
import string
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import ExperimentSpec
from repro.client import ServiceClient
from repro.service import server as server_module
from repro.service.server import GatewayServer, ServerThread
from repro.service.events import JobAdmitted, JobCancelled, ReplicaCompleted
from repro.service.wire import event_from_wire, event_to_wire

SPEC = ExperimentSpec.make("oltp", scale=0.05)

HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: loopback\r\n\r\n"

EMPTY_REPLY = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    b"Content-Length: 2\r\n\r\n{}"
)


@pytest.fixture
def accepted(monkeypatch):
    """The connections the gateway accepts, one entry each."""
    connections = []
    original = GatewayServer._handle_connection

    async def counting(self, reader, writer):
        connections.append(writer)
        await original(self, reader, writer)

    monkeypatch.setattr(GatewayServer, "_handle_connection", counting)
    return connections


def _read_response(stream):
    """``(status, headers, body)`` of one response; a chunked body is the
    list of its chunks, a close-delimited body runs to end of stream."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        chunks = []
        while True:
            size = int(stream.readline().strip(), 16)
            data = stream.read(size)
            assert stream.read(2) == b"\r\n"
            if size == 0:
                return status, headers, chunks
            chunks.append(data)
    if "content-length" in headers:
        return status, headers, stream.read(int(headers["content-length"]))
    return status, headers, stream.read()


def _assert_closed(sock):
    """The gateway has closed ``sock`` (EOF, or a reset for unread bytes)."""
    try:
        assert sock.recv(1) == b""
    except ConnectionResetError:
        pass


def _connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=30)


class TestPersistentConnections:
    def test_two_requests_back_to_back_on_one_socket(self):
        with ServerThread(jobs=1) as server, _connect(server.port) as sock:
            sock.sendall(HEALTH + b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            stream = sock.makefile("rb")
            health = _read_response(stream)
            metrics = _read_response(stream)
            sock.sendall(HEALTH)
            again = _read_response(stream)
        assert health[0] == metrics[0] == again[0] == 200
        assert "connection" not in health[1]
        assert "degraded" in json.loads(health[2])
        assert "jobs" in json.loads(metrics[2])

    @pytest.mark.parametrize(
        "request_head",
        [
            b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /v1/health HTTP/1.0\r\n\r\n",
        ],
        ids=["connection-close", "http-1.0"],
    )
    def test_close_request_ends_the_connection(self, request_head):
        with ServerThread(jobs=1) as server, _connect(server.port) as sock:
            sock.sendall(request_head)
            status, headers, _body = _read_response(sock.makefile("rb"))
            assert status == 200
            assert headers["connection"] == "close"
            _assert_closed(sock)

    def test_client_sequence_is_served_on_one_connection(self, accepted):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            job_id = client.submit(SPEC).job_id
            events = list(client.stream(job_id))
            status = client.status(job_id)
            assert client.health()["degraded"] is False
        assert events[-1].terminal
        assert status.state == "completed"
        assert len(accepted) == 1

    def test_chunked_events_match_the_unchunked_decode(self):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            job_id = client.submit(SPEC).job_id
            client.wait(job_id)
            path = f"/v1/jobs/{job_id}/events"
            with _connect(server.port) as sock:
                sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                stream = sock.makefile("rb")
                status, headers, chunks = _read_response(stream)
                # The stream left the connection usable.
                sock.sendall(HEALTH)
                assert _read_response(stream)[0] == 200
            with _connect(server.port) as sock:
                sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
                plain_status, plain_headers, body = _read_response(sock.makefile("rb"))
            streamed = list(client.stream(job_id))
        assert status == plain_status == 200
        assert headers["transfer-encoding"] == "chunked"
        assert "content-length" not in headers
        assert "transfer-encoding" not in plain_headers
        assert plain_headers["connection"] == "close"
        # One chunk per event line.
        assert all(c.endswith(b"\n") and c.count(b"\n") == 1 for c in chunks)
        chunked = [event_from_wire(json.loads(chunk)) for chunk in chunks]
        unchunked = [event_from_wire(json.loads(x)) for x in body.splitlines()]
        assert chunked == unchunked == streamed
        assert chunked[-1].terminal

    def test_abandoned_stream_is_followed_by_a_working_request(self, accepted):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            job_id = client.submit(SPEC).job_id
            client.wait(job_id)
            assert len(accepted) == 1
            events = client.stream(job_id)
            next(events)
            events.close()
            assert client.status(job_id).state == "completed"
            # A request made while a stream is being read uses its own
            # connection; the stream still finishes.
            for event in client.stream(job_id):
                assert client.status(job_id).state == "completed"
            assert event.terminal
            assert client.health()["degraded"] is False
        # The abandoned stream's connection was not reused.
        assert len(accepted) == 3

    def test_one_client_shared_by_two_threads(self, accepted):
        specs = [SPEC, SPEC.with_overrides(seed=7)]
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            barrier = threading.Barrier(2)
            results = {}
            errors = []

            def work(spec):
                try:
                    barrier.wait()
                    for _ in range(3):
                        accepted_job = client.submit(spec)
                        results.setdefault(spec, []).append(
                            client.wait(accepted_job.job_id)
                        )
                        assert client.status(accepted_job.job_id).state == "completed"
                except Exception as error:  # reported by the test thread
                    errors.append(error)

            threads = [threading.Thread(target=work, args=(s,)) for s in specs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        assert errors == []
        for spec in specs:
            first, *rest = results[spec]
            assert all(result == first for result in rest)
        assert results[specs[0]][0] != results[specs[1]][0]
        # One connection per thread, each reused for all of its requests.
        assert len(accepted) == 2

    def test_shared_client_stress_keeps_one_connection_per_thread(self, accepted):
        threads_n, requests_n = 6, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ServerThread(jobs=1) as server:
                client = ServiceClient(server.base_url)
                barrier = threading.Barrier(threads_n)
                served = []

                def work():
                    barrier.wait()
                    for _ in range(requests_n):
                        served.append(client.health()["degraded"])

                threads = [threading.Thread(target=work) for _ in range(threads_n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                client.close()
        finally:
            sys.setswitchinterval(interval)
        assert served == [False] * (threads_n * requests_n)
        assert len(accepted) == threads_n


class _HangUpServer(threading.Thread):
    """A stand-in gateway: its first connection answers one request, then
    reads the next one and hangs up unanswered; later connections answer
    every request with ``{}``."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.1)
        self.port = self.listener.getsockname()[1]
        self.requests = []
        self.stopping = threading.Event()

    def run(self) -> None:
        for index in itertools.count():
            while not self.stopping.is_set():
                try:
                    connection, _ = self.listener.accept()
                    break
                except socket.timeout:
                    continue
            else:
                return
            # Each connection on its own thread: a connection the client
            # left open does not block the next one.
            threading.Thread(
                target=self._serve, args=(index, connection), daemon=True
            ).start()

    def _serve(self, index, connection) -> None:
        with connection:
            connection.settimeout(30)
            stream = connection.makefile("rb")
            while True:
                request_line = stream.readline()
                if not request_line:
                    return
                length = 0
                for line in iter(stream.readline, b"\r\n"):
                    name, _, value = line.decode("latin-1").partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                stream.read(length)
                self.requests.append((index, request_line.split()[0].decode()))
                if not self._answer(index, connection):
                    return

    def _answer(self, index, connection) -> bool:
        """Answer the request just read; ``False`` hangs up instead."""
        if index == 0 and len(self.requests) == 2:
            return False
        connection.sendall(EMPTY_REPLY)
        return True

    def __enter__(self) -> "_HangUpServer":
        self.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stopping.set()
        self.join(timeout=30)
        self.listener.close()
        assert not self.is_alive()


class _ScriptedServer(_HangUpServer):
    """A stand-in gateway that answers its requests, in order, with the raw
    ``replies`` (each ``(bytes, hang_up)``: hang up after it, or keep the
    connection open), then with ``{}``."""

    def __init__(self, *replies) -> None:
        super().__init__()
        self.replies = list(replies)

    def _answer(self, index, connection) -> bool:
        reply, hang_up = self.replies.pop(0) if self.replies else (EMPTY_REPLY, False)
        connection.sendall(reply)
        return not hang_up


class _CountingSocket(socket.socket):
    """A client socket that counts its sends."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sends = 0

    def send(self, data, *args):
        self.sends += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends += 1
        return super().sendall(data, *args)


@pytest.fixture
def client_sockets(monkeypatch):
    """The sockets ``socket.create_connection`` opens, as counting ones."""
    sockets = []

    def create_connection(address, timeout=None, *_args, **_kwargs):
        sock = _CountingSocket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
        sockets.append(sock)
        return sock

    monkeypatch.setattr(socket, "create_connection", create_connection)
    return sockets


def _chunked_reply(*chunks):
    """A 200 NDJSON response carrying ``chunks``, then the zero chunk."""
    body = b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
    return (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n" + body + b"0\r\n\r\n"
    )


class TestClientTransport:
    def test_event_lines_decode_across_chunk_boundaries(self):
        events = [
            JobAdmitted("job-1", label="oltp", total_replicas=1, priority=0),
            ReplicaCompleted("job-1", replica_index=0, source="cache", runtime_ns=7),
            JobCancelled("job-1"),
        ]
        lines = [
            json.dumps(event_to_wire(event), sort_keys=True).encode() + b"\n"
            for event in events
        ]
        one_per_line = _chunked_reply(*lines)
        # The first line split over two chunks, the next two in one chunk.
        regrouped = _chunked_reply(lines[0][:7], lines[0][7:], lines[1] + lines[2])
        with _ScriptedServer((one_per_line, False), (regrouped, False)) as fake:
            with ServiceClient(f"http://127.0.0.1:{fake.port}") as client:
                streamed = list(client.stream("job-1"))
                restreamed = list(client.stream("job-1"))
                assert client.health() == {}
        assert streamed == restreamed == events
        # Both bodies were read to their zero chunk: one connection served all.
        assert fake.requests == [(0, "GET")] * 3

    def test_connection_close_reply_is_not_reused(self):
        closing = EMPTY_REPLY.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
        # The stand-in keeps the connection open: only the header says close.
        with _ScriptedServer((closing, False)) as fake:
            with ServiceClient(f"http://127.0.0.1:{fake.port}") as client:
                assert client.health() == {}
                assert client.health() == {}
        assert fake.requests == [(0, "GET"), (1, "GET")]

    def test_truncated_body_raises_and_discards_the_connection(self, client_sockets):
        truncated = EMPTY_REPLY.replace(b"Content-Length: 2", b"Content-Length: 10")
        with _ScriptedServer((truncated, True)) as fake:
            with ServiceClient(f"http://127.0.0.1:{fake.port}") as client:
                with pytest.raises(ConnectionError):
                    client.health()
                assert client_sockets[0].fileno() == -1  # closed by the client
                assert client.health() == {}
        assert fake.requests == [(0, "GET"), (1, "GET")]

    def test_https_url_speaks_tls_on_the_same_transport(self):
        listener = socket.create_server(("127.0.0.1", 0))
        received = []

        def accept_one():
            connection, _ = listener.accept()
            with connection:
                received.append(connection.recv(1))

        thread = threading.Thread(target=accept_one, daemon=True)
        thread.start()
        client = ServiceClient(f"https://127.0.0.1:{listener.getsockname()[1]}")
        with pytest.raises(OSError):  # the stand-in hangs up mid-handshake
            client.health()
        thread.join(timeout=30)
        listener.close()
        # The first byte is a TLS handshake record (the ClientHello).
        assert received == [b"\x16"]

    def test_every_request_is_one_send_on_a_nodelay_socket(self, client_sockets):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            job_id = client.submit(SPEC).job_id
            (sock,) = client_sockets
            nodelay = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            client.wait(job_id)
            client.status(job_id)
            client.cancel(job_id)
            client.health()
        assert nodelay != 0
        # POST, GET events, GET, DELETE, GET: five requests, five sends.
        assert len(client_sockets) == 1
        assert sock.sends == 5


class TestClientRetry:
    def test_stale_idle_connection_is_replaced(self, monkeypatch, accepted):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            client.health()
            time.sleep(0.6)  # the gateway closes the idle connection
            accepted_job = client.submit(SPEC)
            client.wait(accepted_job.job_id)
            jobs = server.call(lambda: list(server.manager.jobs))
        assert jobs == [accepted_job.job_id]
        assert len(accepted) == 2

    def test_request_sent_while_the_loop_is_busy_is_served(self, monkeypatch, accepted):
        """The read timer fires late (the loop was blocked, as by an inline
        replica); a request that arrived in time is still served."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            client.health()
            server.loop.call_soon_threadsafe(time.sleep, 1.0)
            time.sleep(0.1)  # sent while the loop sleeps, before its timer runs
            accepted_job = client.submit(SPEC)
            client.wait(accepted_job.job_id)
            jobs = server.call(lambda: list(server.manager.jobs))
        assert jobs == [accepted_job.job_id]
        # The timed-out connection closed after serving the request.
        assert len(accepted) == 2

    def test_get_is_retried_once_on_a_fresh_connection(self):
        with _HangUpServer() as fake:
            client = ServiceClient(f"http://127.0.0.1:{fake.port}")
            assert client.health() == {}
            assert client.health() == {}
            client.close()
        assert fake.requests == [(0, "GET"), (0, "GET"), (1, "GET")]

    def test_post_the_server_could_have_read_is_not_resent(self):
        with _HangUpServer() as fake:
            client = ServiceClient(f"http://127.0.0.1:{fake.port}")
            assert client.health() == {}
            with pytest.raises(ConnectionError):
                client.submit(SPEC)
            # The failed connection is gone; the next request works.
            assert client.health() == {}
            client.close()
        assert fake.requests == [(0, "GET"), (0, "POST"), (1, "GET")]

    def test_first_request_is_not_retried(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()
        client = ServiceClient(f"http://127.0.0.1:{port}")
        with pytest.raises(ConnectionRefusedError):
            client.health()


def _framing_cases():
    limit = server_module.MAX_BODY_BYTES
    many = "".join(f"X-{i}: y\r\n" for i in range(server_module.MAX_HEADERS + 1))
    long_line = "X-Long: " + "a" * server_module.MAX_LINE_BYTES + "\r\n"
    post = "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
    return {
        "non-integer-length": (post + "Content-Length: ten\r\n\r\n", 400),
        "negative-length": (post + "Content-Length: -5\r\n\r\n{}", 400),
        "signed-length": (post + "Content-Length: +2\r\n\r\n{}", 400),
        "over-limit-body": (post + f"Content-Length: {limit + 1}\r\n\r\n", 413),
        "too-many-headers": (post + many + "\r\n", 400),
        "header-line-too-long": (post + long_line + "\r\n", 400),
        "header-without-colon": (post + "Content-Length 2\r\n\r\n{}", 400),
        "chunked-request-body": (
            post + "Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            400,
        ),
        "malformed-request-line": ("HELLO\r\n\r\n", 400),
        "not-http-1": ("GET /v1/health HTTP/2.0\r\n\r\n", 400),
    }


FRAMING_CASES = _framing_cases()


class TestFramingErrors:
    @pytest.mark.parametrize("case", sorted(FRAMING_CASES))
    def test_framing_error_answers_4xx_and_closes(self, case):
        raw, expected = FRAMING_CASES[case]
        with ServerThread(jobs=1) as server, _connect(server.port) as sock:
            sock.sendall(raw.encode("latin-1"))
            status, headers, body = _read_response(sock.makefile("rb"))
            assert status == expected
            assert headers["connection"] == "close"
            assert json.loads(body)["error"]
            _assert_closed(sock)
            jobs = server.call(lambda: len(server.manager.jobs))
        assert jobs == 0

    def test_read_timeout_closes_a_half_sent_request(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with ServerThread(jobs=1) as server, _connect(server.port) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n")
            start = time.monotonic()
            assert sock.recv(1) == b""
            elapsed = time.monotonic() - start
        assert 0.1 < elapsed < 10

    def test_read_timeout_closes_a_half_sent_body(self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with ServerThread(jobs=1) as server, _connect(server.port) as sock:
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\n{")
            assert sock.recv(1) == b""
            jobs = server.call(lambda: len(server.manager.jobs))
        assert jobs == 0


@pytest.fixture(scope="module")
def fuzz_gateway():
    """One gateway for every fuzz example (it never has a job)."""
    with ServerThread(jobs=1) as server:
        yield server


_TOKEN = st.text(alphabet=string.ascii_letters + string.digits + "-", min_size=1)
_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF),
    max_size=40,
)


@st.composite
def _raw_requests(draw):
    """``(method, path, bytes)``: a valid request line, random header
    lines, an optional ``Content-Length`` (the body's, or random), optional
    junk bytes in the head, and a body; the head ends with a blank line."""
    method = draw(st.sampled_from(["GET", "POST", "DELETE", "PUT"]))
    path = draw(
        st.sampled_from(
            ["/v1/health", "/v1/metrics", "/v1/jobs", "/v1/jobs/job-0", "/nowhere"]
        )
    )
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    head = f"{method} {path} {version}\r\n"
    for name, value in draw(st.lists(st.tuples(_TOKEN, _VALUE), max_size=8)):
        head += f"{name}: {value}\r\n"
    body = draw(st.binary(max_size=40))
    length = draw(
        st.one_of(
            st.none(),
            st.just(str(len(body))),
            st.integers(0, 2 * server_module.MAX_BODY_BYTES).map(str),
            _VALUE,
        )
    )
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    junk = draw(st.one_of(st.just(b""), st.binary(max_size=40)))
    return method, path, head.encode("latin-1") + junk + b"\r\n\r\n" + body


class TestParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(request=_raw_requests())
    def test_every_answer_is_well_framed_and_framing_errors_close(
        self, fuzz_gateway, request
    ):
        method, path, raw = request
        with _connect(fuzz_gateway.port) as sock:
            sock.sendall(raw)
            # End of input: the gateway never waits out its read timeout.
            sock.shutdown(socket.SHUT_WR)
            received = b""
            try:
                while data := sock.recv(65536):
                    received += data
            except ConnectionResetError:
                pass
        stream = io.BytesIO(received)
        responses = []
        while stream.tell() < len(received):
            status, headers, body = _read_response(stream)
            assert len(body) == int(headers["content-length"])
            document = json.loads(body)
            responses.append((status, headers))
            assert status in (200, 202) or 400 <= status < 500, document
            if status >= 400:
                assert document["error"]
        for index, (status, headers) in enumerate(responses):
            if headers.get("connection") == "close":
                assert index == len(responses) - 1
            if status == 413:
                assert headers["connection"] == "close"
            if status == 400 and headers.get("connection") != "close":
                # A kept-alive 400 refuses a well-framed body, not framing.
                assert (index, method, path) == (0, "POST", "/v1/jobs")


class TestShutdown:
    def test_stop_returns_promptly_with_open_connections(self):
        server = ServerThread(jobs=1).start()
        client = ServiceClient(server.base_url)
        server.call(server.manager.pause_scheduling)
        job_id = client.submit(SPEC).job_id
        with _connect(server.port) as half_sent, _connect(server.port) as streaming:
            half_sent.sendall(b"GET /v1/health HTTP/1.1\r\n")
            streaming.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode())
            stream = streaming.makefile("rb")
            assert stream.readline().startswith(b"HTTP/1.1 200")
            # ``client`` now holds an idle keep-alive connection too.
            start = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - start
            _assert_closed(half_sent)
        client.close()
        assert elapsed < 5
