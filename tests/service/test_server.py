"""End-to-end tests of the HTTP/WebSocket gateway on real sockets.

Every test binds an ephemeral loopback port via
:class:`~repro.service.server.ServerThread` and drives it with the
blocking :class:`~repro.client.ServiceClient` (or a raw socket, for the
WebSocket framing and header arithmetic).  The headline acceptance
properties: results fetched through the gateway are **bit-identical** to
direct ``api.run_experiment`` calls; a 429 rejection carries consistent
``retry_after_s`` body and ``Retry-After`` header arithmetic; NDJSON and
WebSocket streams deliver the same strictly-ordered event sequence, even
to clients connecting after the job finished and under concurrent
multi-client load.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import math
import socket
import struct
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.api.spec import ExperimentSpec
from repro import client as client_module
from repro.client import ServiceClient, ServiceClientError, ServiceRejectedError
from repro.service.cache import ResultCache
from repro.service.events import (
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobProgress,
    ReplicaCompleted,
)
from repro.service.metrics import validate_metrics_snapshot
from repro.service.server import ServerThread
from repro.service.wire import SubmitRequest, event_from_wire

SCALE = 0.05

SPEC = ExperimentSpec.make("oltp", scale=SCALE)
SPEC_DIROPT = ExperimentSpec.make("oltp", protocol="diropt", scale=SCALE)


def _assert_stream_shape(events, terminal_type=JobCompleted):
    events = [event for event in events if not event.informational]
    assert isinstance(events[0], JobAdmitted)
    assert isinstance(events[-1], terminal_type)
    assert all(not event.terminal for event in events[1:-1])
    middle = events[1:-1]
    assert len(middle) % 2 == 0
    for index in range(0, len(middle), 2):
        assert isinstance(middle[index], ReplicaCompleted)
        assert isinstance(middle[index + 1], JobProgress)
        assert middle[index + 1].completed == index // 2 + 1


def _ws_events(port: int, job_id: str):
    """Read one job's full WebSocket event stream over a raw socket."""
    key = base64.b64encode(b"0123456789abcdef").decode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            (
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                "Host: loopback\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("ascii")
        )
        stream = sock.makefile("rb")
        status_line = stream.readline().decode("latin-1")
        assert " 101 " in status_line
        headers = {}
        while True:
            line = stream.readline()
            if line in (b"\r\n", b"", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        guid = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
        expected = base64.b64encode(
            hashlib.sha1((key + guid).encode("ascii")).digest()
        ).decode("ascii")
        assert headers["sec-websocket-accept"] == expected
        events = []
        close_code = None
        while True:
            head = stream.read(2)
            opcode, length = head[0] & 0x0F, head[1] & 0x7F
            if length == 126:
                length = struct.unpack("!H", stream.read(2))[0]
            elif length == 127:
                length = struct.unpack("!Q", stream.read(8))[0]
            payload = stream.read(length)
            if opcode == 0x8:
                close_code = struct.unpack("!H", payload[:2])[0]
                break
            assert opcode == 0x1
            events.append(event_from_wire(json.loads(payload)))
        return events, close_code


class TestSubmitStreamResult:
    def test_gateway_result_bit_identical_to_direct_api(self):
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url, client_id="e2e")
            accepted = client.submit(SPEC)
            assert accepted.total_replicas == 1
            assert accepted.client_id == "e2e"
            result = client.wait(accepted.job_id)
            status = client.status(accepted.job_id)
        assert result == api.run_experiment(spec=SPEC)
        assert status.state == "completed"
        assert status.result == result
        assert status.completed_replicas == status.total_replicas == 1

    def test_multi_replica_stream_ordering_over_http(self):
        spec = SPEC.with_overrides(perturbation_replicas=3)
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            accepted = client.submit(spec)
            events = list(client.stream(accepted.job_id))
        _assert_stream_shape(events)
        assert len([e for e in events if isinstance(e, ReplicaCompleted)]) == 3

    def test_stream_replays_identically_after_completion(self):
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            accepted = client.submit(SPEC)
            live = list(client.stream(accepted.job_id))
            replay = list(client.stream(accepted.job_id))
        assert replay == live

    def test_websocket_stream_matches_ndjson(self):
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            accepted = client.submit(SPEC)
            ndjson = list(client.stream(accepted.job_id))
            ws, close_code = _ws_events(server.port, accepted.job_id)
        assert ws == ndjson
        assert close_code == 1000
        _assert_stream_shape(ws)

    def test_cached_replay_over_http_zero_pool_submissions(self, tmp_path):
        with ServerThread(jobs=1, cache=ResultCache(tmp_path / "cache")) as server:
            client = ServiceClient(server.base_url)
            fresh = client.run(SPEC)
        with ServerThread(jobs=1, cache=ResultCache(tmp_path / "cache")) as server:
            client = ServiceClient(server.base_url)
            replayed = client.run(SPEC)
            submissions = server.call(lambda: server.manager.backend.submissions)
        assert submissions == 0
        assert replayed == fresh


class TestAdmissionOverHttp:
    def test_429_body_and_retry_after_header_arithmetic(self):
        with ServerThread(jobs=1, max_pending_cost=1) as server:
            client = ServiceClient(server.base_url, client_id="flood")
            server.call(server.manager.pause_scheduling)
            first = client.submit(SPEC)  # an empty queue always admits
            with pytest.raises(ServiceRejectedError) as excinfo:
                client.submit(SPEC_DIROPT)
            rejection = excinfo.value.rejection
            # The raw response ties the header to the body arithmetic.
            request = urllib.request.Request(
                f"{server.base_url}/v1/jobs",
                data=json.dumps(
                    SubmitRequest(spec=SPEC_DIROPT).to_wire()
                ).encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as http_excinfo:
                urllib.request.urlopen(request, timeout=30)
            error = http_excinfo.value
            body = json.loads(error.read())
            header = error.headers.get("Retry-After")
            error.close()
            server.call(server.manager.resume_scheduling)
            client.wait(first.job_id)
        assert error.code == 429
        assert rejection.budget == 1
        assert rejection.pending_cost > 0
        assert rejection.retry_after_s > 0
        assert body["retry_after_s"] > 0
        assert int(header) == max(1, math.ceil(body["retry_after_s"]))

    def test_rejected_submission_registers_no_job(self):
        with ServerThread(jobs=1, max_pending_cost=1) as server:
            client = ServiceClient(server.base_url)
            server.call(server.manager.pause_scheduling)
            first = client.submit(SPEC)
            with pytest.raises(ServiceRejectedError):
                client.submit(SPEC_DIROPT)
            job_count = server.call(lambda: len(server.manager.jobs))
            server.call(server.manager.resume_scheduling)
            client.wait(first.job_id)
        assert job_count == 1


    def test_run_retries_after_the_rejections_estimate(self, monkeypatch):
        slept = []
        with ServerThread(jobs=1, max_pending_cost=1) as server:
            client = ServiceClient(server.base_url, client_id="flood")
            server.call(server.manager.pause_scheduling)
            # An empty queue always admits; three replicas queue enough
            # cost that the estimate exceeds its 0.05 s floor.
            first = client.submit(SPEC.with_overrides(perturbation_replicas=3))
            with pytest.raises(ServiceRejectedError) as excinfo:
                client.submit(SPEC_DIROPT)
            estimate = excinfo.value.retry_after_s

            def sleep(seconds):
                # The back-off: the queued job finishes, freeing the budget.
                slept.append(seconds)
                server.call(server.manager.resume_scheduling)
                with ServiceClient(server.base_url) as other:
                    other.wait(first.job_id)

            monkeypatch.setattr(client_module.time, "sleep", sleep)
            result = client.run(SPEC_DIROPT, retries=1)
            client.close()
        # The scheduler is paused between the two rejections, so their
        # estimates agree.
        assert estimate > 0.05
        assert slept == [estimate]
        assert result == api.run_experiment(spec=SPEC_DIROPT)


class TestCancelOverHttp:
    def test_delete_cancels_queued_job_and_stream_terminates(self):
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            server.call(server.manager.pause_scheduling)
            accepted = client.submit(SPEC)
            response = client.cancel(accepted.job_id)
            assert response.cancelled is True
            assert response.state == "cancelled"
            # Cancelling again reports the job was no longer live.
            again = client.cancel(accepted.job_id)
            assert again.cancelled is False
            server.call(server.manager.resume_scheduling)
            events = list(client.stream(accepted.job_id))
            status = client.status(accepted.job_id)
        assert isinstance(events[-1], JobCancelled)
        assert status.state == "cancelled"
        assert status.error is not None and accepted.job_id in status.error

    def test_wait_on_cancelled_job_raises(self):
        from repro.service.manager import JobCancelledError

        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            server.call(server.manager.pause_scheduling)
            accepted = client.submit(SPEC)
            client.cancel(accepted.job_id)
            server.call(server.manager.resume_scheduling)
            with pytest.raises(JobCancelledError):
                client.wait(accepted.job_id)


class TestConcurrentClients:
    def test_two_weighted_clients_stream_concurrently_in_order(self):
        weights = {"alpha": 2, "beta": 1}
        specs = {
            "alpha": [
                SPEC,
                SPEC_DIROPT,
                SPEC.with_overrides(slack=2),
                SPEC_DIROPT.with_overrides(slack=2),
            ],
            "beta": [
                ExperimentSpec.make("oltp", protocol="dirclassic", scale=SCALE),
                ExperimentSpec.make(
                    "oltp", protocol="dirclassic", scale=SCALE, slack=2
                ),
            ],
        }
        streams: dict = {}
        errors: list = []
        with ServerThread(
            jobs=1, client_weights=weights, record_schedule=True
        ) as server:
            clients = {
                name: ServiceClient(server.base_url, client_id=name)
                for name in weights
            }
            server.call(server.manager.pause_scheduling)
            tickets = {
                name: [clients[name].submit(spec) for spec in specs[name]]
                for name in weights
            }
            server.call(server.manager.resume_scheduling)

            def follow(name):
                try:
                    streams[name] = [
                        list(clients[name].stream(ticket.job_id))
                        for ticket in tickets[name]
                    ]
                except Exception as error:  # surfaced in the main thread
                    errors.append((name, error))

            threads = [
                threading.Thread(target=follow, args=(name,)) for name in weights
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            serve_log = server.call(
                lambda: list(server.manager.scheduler.serve_log)
            )
            quantum = server.call(lambda: server.manager.scheduler.quantum)
        assert not errors
        for name in weights:
            for events in streams[name]:
                _assert_stream_shape(events)
        # The 2:1 split holds while both lanes stay backlogged.
        backlog = {name: len(specs[name]) for name in weights}
        served = {name: 0 for name in weights}
        for client_id, cost in serve_log:
            both = backlog["alpha"] > 0 and backlog["beta"] > 0
            served[client_id] += cost
            backlog[client_id] -= 1
            if both:
                gap = abs(served["alpha"] / 2 - served["beta"])
                assert gap <= quantum

    def test_websocket_and_ndjson_clients_share_one_job(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            server.call(server.manager.pause_scheduling)
            accepted = client.submit(spec)
            collected: dict = {}

            def follow_ndjson():
                collected["ndjson"] = list(client.stream(accepted.job_id))

            def follow_ws():
                collected["ws"], collected["close"] = _ws_events(
                    server.port, accepted.job_id
                )

            threads = [
                threading.Thread(target=follow_ndjson),
                threading.Thread(target=follow_ws),
            ]
            for thread in threads:
                thread.start()
            server.call(server.manager.resume_scheduling)
            for thread in threads:
                thread.join()
        assert collected["ws"] == collected["ndjson"]
        assert collected["close"] == 1000
        _assert_stream_shape(collected["ws"])


class TestErrorsOverHttp:
    def test_unknown_job_is_404(self):
        with ServerThread(jobs=1) as server:
            client = ServiceClient(server.base_url)
            with pytest.raises(ServiceClientError) as excinfo:
                client.status("job-999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client.cancel("job-999")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                list(client.stream("job-999"))
            assert excinfo.value.status == 404

    def test_unknown_route_is_404_and_wrong_method_is_405(self):
        with ServerThread(jobs=1) as server:
            request = urllib.request.Request(
                f"{server.base_url}/v2/nope", method="GET"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 404
            excinfo.value.close()
            request = urllib.request.Request(
                f"{server.base_url}/v1/jobs", method="GET"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 405
            excinfo.value.close()

    def test_hand_rolled_dict_submit_is_400_with_pointed_error(self):
        with ServerThread(jobs=1) as server:
            request = urllib.request.Request(
                f"{server.base_url}/v1/jobs",
                data=json.dumps({"workload": "oltp"}).encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            body = json.loads(excinfo.value.read())
            excinfo.value.close()
        assert excinfo.value.code == 400
        assert "hand-rolled" in body["error"]
        assert "SubmitRequest" in body["error"]

    def test_spec_overriding_a_removed_field_is_400(self):
        document = SubmitRequest(spec=ExperimentSpec.make("oltp")).to_wire()
        document["spec"]["overrides"] = [["scheduler", "heapq"]]
        with ServerThread(jobs=1) as server:
            request = urllib.request.Request(
                f"{server.base_url}/v1/jobs",
                data=json.dumps(document).encode("utf-8"),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            body = json.loads(excinfo.value.read())
            excinfo.value.close()
        assert excinfo.value.code == 400
        assert "unknown SystemConfig override 'scheduler'" in body["error"]

    def test_invalid_json_body_is_400(self):
        with ServerThread(jobs=1) as server:
            request = urllib.request.Request(
                f"{server.base_url}/v1/jobs",
                data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            excinfo.value.close()
        assert excinfo.value.code == 400


class TestGatewayWrites:
    """Each batch of available events is one ``StreamWriter.write``; a
    finished job's whole stream, head included, is one batch."""

    @pytest.fixture
    def writes(self, monkeypatch):
        writes = []
        original = asyncio.StreamWriter.write

        def counting(writer, data):
            writes.append(bytes(data))
            original(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
        return writes

    def test_finished_job_ndjson_stream_is_one_write(self, writes):
        with ServerThread(jobs=1) as server:
            with ServiceClient(server.base_url) as client:
                job_id = client.submit(SPEC).job_id
                events = list(client.stream(job_id))
                writes.clear()
                assert list(client.stream(job_id)) == events
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
        assert writes[0].endswith(b"\n\r\n0\r\n\r\n")

    def test_finished_job_websocket_stream_is_one_write(self, writes):
        with ServerThread(jobs=1) as server:
            with ServiceClient(server.base_url) as client:
                job_id = client.submit(SPEC).job_id
                events = list(client.stream(job_id))
            writes.clear()
            ws_events, close_code = _ws_events(server.port, job_id)
        assert ws_events == events
        assert close_code == 1000
        assert len(writes) == 1
        assert writes[0].startswith(b"HTTP/1.1 101 Switching Protocols\r\n")


class TestHealthAndMetricsOverHttp:
    def test_metrics_snapshot_validates_and_reports_clients(self):
        with ServerThread(jobs=1, client_weights={"vip": 3}) as server:
            client = ServiceClient(server.base_url, client_id="vip")
            client.run(SPEC)
            snapshot = client.metrics()
            health = client.health()
        validate_metrics_snapshot(snapshot)
        assert snapshot["clients"]["vip"]["weight"] == 3
        assert snapshot["clients"]["vip"]["served_cost"] > 0
        assert snapshot["jobs"]["jobs_completed"] == 1
        assert health == {"degraded": False, "components": {}}
