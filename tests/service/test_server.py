"""End-to-end tests of the HTTP gateway on real sockets.

Every test binds an ephemeral loopback port via
:class:`~repro.service.server.ServerThread` and drives it with the
blocking :class:`~repro.client.ServiceClient` (or a raw socket, for the
header arithmetic and the close-delimited stream).  The headline
acceptance properties: results fetched through the gateway are
**bit-identical** to direct ``api.run_experiment`` calls; a 429 rejection
carries consistent ``retry_after_s`` body and ``Retry-After`` header
arithmetic and uses up no job id; NDJSON streams deliver the same
strictly-ordered event sequence to every follower, even to clients
connecting after the job finished and under concurrent multi-client load.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.api.spec import ExperimentSpec
from repro import client as client_module
from repro.client import (
    JobGoneError,
    ServiceClient,
    ServiceClientError,
    ServiceRejectedError,
)
from repro.service import manager as manager_module
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
from repro.service.wire import SubmitAccepted, SubmitRequest, event_from_wire
from tests.service.backends import InlinePoolBackend

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


class TestSubmitStreamResult:
    def test_gateway_result_bit_identical_to_direct_api(self):
        with (
            ServerThread(jobs=1) as server,
            ServiceClient(server.base_url, client_id="e2e") as client,
        ):
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
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            accepted = client.submit(spec)
            events = list(client.stream(accepted.job_id))
        _assert_stream_shape(events)
        assert len([e for e in events if isinstance(e, ReplicaCompleted)]) == 3

    def test_stream_replays_identically_after_completion(self):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            accepted = client.submit(SPEC)
            live = list(client.stream(accepted.job_id))
            replay = list(client.stream(accepted.job_id))
        assert replay == live

    def test_cached_replay_over_http_zero_pool_submissions(self, tmp_path):
        with (
            ServerThread(jobs=1, cache=ResultCache(tmp_path / "cache")) as server,
            ServiceClient(server.base_url) as client,
        ):
            fresh = client.run(SPEC)
        with (
            ServerThread(jobs=1, cache=ResultCache(tmp_path / "cache")) as server,
            ServiceClient(server.base_url) as client,
        ):
            replayed = client.run(SPEC)
            submissions = server.call(lambda: server.manager.backend.submissions)
        assert submissions == 0
        assert replayed == fresh
        # A third life writes three entries into a disk budget of about
        # 2.5 of them: least-recently-used entries go, the store stays
        # under the budget.
        (size,) = [entry.stat().st_size for entry in tmp_path.glob("cache/??/*.json")]
        budget = 2 * size + size // 2
        with (
            ServerThread(
                jobs=1,
                cache=ResultCache(tmp_path / "budgeted", disk_budget_bytes=budget),
            ) as server,
            ServiceClient(server.base_url) as client,
        ):
            for spec in (SPEC, SPEC_DIROPT, SPEC.with_overrides(slack=2)):
                client.run(spec)
            cache_stats = client.metrics()["cache"]
        assert cache_stats["disk_evictions"] > 0
        assert cache_stats["disk_bytes"] <= budget


class TestCacheHitIsOneRoundTrip:
    """A job complete at admission carries its result in the ``202``, and
    the client's ``wait()`` returns it without a second request."""

    @pytest.fixture
    def warm(self):
        """A gateway whose result cache holds ``SPEC`` and ``SPEC_DIROPT``."""
        with (
            ServerThread(backend=InlinePoolBackend(), cache=ResultCache()) as server,
            ServiceClient(server.base_url) as client,
        ):
            for spec in (SPEC, SPEC_DIROPT):
                client.run(spec)
            yield server, client

    @staticmethod
    def _count_sends(monkeypatch, client):
        sent = []
        original = client._send

        def counting(method, path, **kwargs):
            sent.append((method, path))
            return original(method, path, **kwargs)

        monkeypatch.setattr(client, "_send", counting)
        return sent

    def test_cached_spec_202_carries_a_bit_identical_result(self, warm):
        _server, client = warm
        accepted = client.submit(SPEC)
        assert accepted.result == api.run_experiment(spec=SPEC)
        assert client.status(accepted.job_id).result == accepted.result

    def test_uncached_spec_202_carries_no_result(self):
        with (
            ServerThread(backend=InlinePoolBackend(), cache=ResultCache()) as server,
            ServiceClient(server.base_url) as client,
        ):
            accepted = client.submit(SPEC)
            assert accepted.result is None
            assert client.wait(accepted.job_id) == api.run_experiment(spec=SPEC)

    def test_hit_wait_sends_no_request(self, warm, monkeypatch):
        _server, client = warm
        sent = self._count_sends(monkeypatch, client)
        result = client.run(SPEC)
        assert sent == [("POST", "/v1/jobs")]
        assert result == api.run_experiment(spec=SPEC)
        # The slot is spent: a second wait on the same job streams.
        job_id = client.submit(SPEC_DIROPT).job_id
        client.wait(job_id)
        sent.clear()
        assert client.wait(job_id) == api.run_experiment(spec=SPEC_DIROPT)
        assert sent == [("GET", f"/v1/jobs/{job_id}/events")]

    def test_wait_on_an_earlier_submission_streams(self, warm, monkeypatch):
        _server, client = warm
        first = client.submit(SPEC)
        second = client.submit(SPEC_DIROPT)
        sent = self._count_sends(monkeypatch, client)
        assert client.wait(first.job_id) == api.run_experiment(spec=SPEC)
        assert sent == [("GET", f"/v1/jobs/{first.job_id}/events")]
        assert client.wait(second.job_id) == api.run_experiment(spec=SPEC_DIROPT)
        assert len(sent) == 1

    def test_slots_are_per_thread(self, warm, monkeypatch):
        server, client = warm
        accepted = client.submit(SPEC)
        sent = self._count_sends(monkeypatch, client)
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(client.wait(accepted.job_id))
        )
        waiter.start()
        waiter.join()
        assert results == [api.run_experiment(spec=SPEC)]
        assert sent == [("GET", f"/v1/jobs/{accepted.job_id}/events")]
        assert client.wait(accepted.job_id) == results[0]
        assert len(sent) == 1

    def test_concurrent_threads_each_wait_for_their_own_hits(self, warm):
        _server, client = warm
        expected = {spec: api.run_experiment(spec=spec) for spec in (SPEC, SPEC_DIROPT)}
        mismatches, finished = [], []

        def submit_and_wait(offset):
            for index in range(10):
                spec = (SPEC, SPEC_DIROPT)[(offset + index) % 2]
                if client.wait(client.submit(spec).job_id) != expected[spec]:
                    mismatches.append((offset, index))
            finished.append(offset)

        threads = [
            threading.Thread(target=submit_and_wait, args=(offset,))
            for offset in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1, 2, 3]
        assert mismatches == []

    def test_exited_threads_leave_no_connection_or_result(self, warm):
        _server, client = warm
        main = threading.get_ident()
        idents = []

        def one_hit():
            idents.append(threading.get_ident())
            client.run(SPEC)
            client.submit(SPEC_DIROPT)  # a kept result it never waits for

        for _ in range(8):
            thread = threading.Thread(target=one_hit)
            thread.start()
            thread.join()
        # Each thread's new connection closed the previous thread's
        # leftovers; only the last thread's remain.
        assert set(client._idle) == {main, idents[-1]}
        assert set(client._completed) == {idents[-1]}
        client.close()
        client.health()  # a new connection
        assert set(client._idle) == {main}
        assert client._completed == {}

    def test_202_without_a_result_falls_back_to_the_stream(self, warm, monkeypatch):
        # A gateway that never puts a result in its 202.
        _server, client = warm
        to_wire = SubmitAccepted.to_wire

        def without_result(accepted):
            document = to_wire(accepted)
            document.pop("result", None)
            return document

        monkeypatch.setattr(SubmitAccepted, "to_wire", without_result)
        sent = self._count_sends(monkeypatch, client)
        assert client.run(SPEC) == api.run_experiment(spec=SPEC)
        assert [method for method, _path in sent] == ["POST", "GET"]


class TestAdmissionOverHttp:
    def test_429_body_and_retry_after_header_arithmetic(self):
        with (
            ServerThread(jobs=1, max_pending_cost=1) as server,
            ServiceClient(server.base_url, client_id="flood") as client,
        ):
            server.call(server.manager.scheduler.hold)
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
            server.call(server.manager.scheduler.release)
            client.wait(first.job_id)
        assert error.code == 429
        assert rejection.budget == 1
        assert rejection.pending_cost > 0
        assert rejection.retry_after_s > 0
        assert body["retry_after_s"] > 0
        assert int(header) == max(1, math.ceil(body["retry_after_s"]))

    def test_rejected_submission_registers_no_job(self):
        with (
            ServerThread(jobs=1, max_pending_cost=1) as server,
            ServiceClient(server.base_url) as client,
        ):
            server.call(server.manager.scheduler.hold)
            first = client.submit(SPEC)
            with pytest.raises(ServiceRejectedError):
                client.submit(SPEC_DIROPT)
            job_count = server.call(lambda: len(server.manager.jobs))
            server.call(server.manager.scheduler.release)
            client.wait(first.job_id)
        assert job_count == 1

    def test_rejection_uses_up_no_job_id(self):
        # The next accepted job is numbered right after the last one, and
        # the id a rejected submission would have had is never "gone".
        with (
            ServerThread(backend=InlinePoolBackend(), max_pending_cost=1) as server,
            ServiceClient(server.base_url) as client,
        ):
            server.call(server.manager.scheduler.hold)
            first = client.submit(SPEC)
            with pytest.raises(ServiceRejectedError):
                client.submit(SPEC_DIROPT)
            answers = {}
            for route in sorted(JOB_ROUTES):
                with pytest.raises(ServiceClientError) as excinfo:
                    JOB_ROUTES[route](client, "job-2")
                answers[route] = (excinfo.value.status, type(excinfo.value))
            server.call(server.manager.scheduler.release)
            client.wait(first.job_id)
            second = client.submit(SPEC_DIROPT)
            client.wait(second.job_id)
        assert answers == {route: (404, ServiceClientError) for route in JOB_ROUTES}
        assert (first.job_id, second.job_id) == ("job-1", "job-2")

    def test_run_retries_after_the_rejections_estimate(self, monkeypatch):
        slept = []
        with (
            ServerThread(jobs=1, max_pending_cost=1) as server,
            ServiceClient(server.base_url, client_id="flood") as client,
        ):
            server.call(server.manager.scheduler.hold)
            # An empty queue always admits; three replicas queue enough
            # cost that the estimate exceeds its 0.05 s floor.
            first = client.submit(SPEC.with_overrides(perturbation_replicas=3))
            with pytest.raises(ServiceRejectedError) as excinfo:
                client.submit(SPEC_DIROPT)
            estimate = excinfo.value.retry_after_s

            def sleep(seconds):
                # The back-off: the queued job finishes, freeing the budget.
                slept.append(seconds)
                server.call(server.manager.scheduler.release)
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
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            server.call(server.manager.scheduler.hold)
            accepted = client.submit(SPEC)
            response = client.cancel(accepted.job_id)
            assert response.cancelled is True
            assert response.state == "cancelled"
            # Cancelling again reports the job was no longer live.
            again = client.cancel(accepted.job_id)
            assert again.cancelled is False
            server.call(server.manager.scheduler.release)
            events = list(client.stream(accepted.job_id))
            status = client.status(accepted.job_id)
        assert isinstance(events[-1], JobCancelled)
        assert status.state == "cancelled"
        assert status.error is not None and accepted.job_id in status.error

    def test_wait_on_cancelled_job_raises(self):
        from repro.service.manager import JobCancelledError

        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
            server.call(server.manager.scheduler.hold)
            accepted = client.submit(SPEC)
            client.cancel(accepted.job_id)
            server.call(server.manager.scheduler.release)
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
        with (
            ServerThread(jobs=1, client_weights=weights) as server,
            ServiceClient(server.base_url, client_id="alpha") as alpha,
            ServiceClient(server.base_url, client_id="beta") as beta,
        ):
            clients = {"alpha": alpha, "beta": beta}
            scheduler = server.manager.scheduler

            def hold_and_log():
                scheduler.hold()
                scheduler.serve_log = []

            server.call(hold_and_log)
            tickets = {
                name: [clients[name].submit(spec) for spec in specs[name]]
                for name in weights
            }
            server.call(server.manager.scheduler.release)

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
            serve_log = server.call(lambda: list(server.manager.scheduler.serve_log))
            quantum = server.call(lambda: server.manager.scheduler.quantum)
        assert not errors
        for name in weights:
            for events in streams[name]:
                _assert_stream_shape(events)
        # The 2:1 split holds while both lanes stay backlogged.
        backlog = {name: len(specs[name]) for name in weights}
        served = {name: 0 for name in weights}
        prefixes_checked = 0
        for client_id, cost in serve_log:
            both = backlog["alpha"] > 0 and backlog["beta"] > 0
            served[client_id] += cost
            backlog[client_id] -= 1
            if both:
                gap = abs(served["alpha"] / 2 - served["beta"])
                assert gap <= quantum
                prefixes_checked += 1
        assert prefixes_checked > 0

    def test_two_ndjson_followers_see_one_sequence(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)
        with (
            ServerThread(jobs=1) as server,
            ServiceClient(server.base_url) as first,
            ServiceClient(server.base_url) as second,
        ):
            server.call(server.manager.scheduler.hold)
            accepted = first.submit(spec)
            collected: dict = {}

            def follow(name, client):
                collected[name] = list(client.stream(accepted.job_id))

            threads = [
                threading.Thread(target=follow, args=(name, client))
                for name, client in (("first", first), ("second", second))
            ]
            for thread in threads:
                thread.start()
            server.call(server.manager.scheduler.release)
            for thread in threads:
                thread.join()
        assert collected["first"] == collected["second"]
        _assert_stream_shape(collected["first"])


class TestErrorsOverHttp:
    def test_unknown_job_is_404(self):
        with ServerThread(jobs=1) as server, ServiceClient(server.base_url) as client:
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
            request = urllib.request.Request(f"{server.base_url}/v2/nope", method="GET")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 404
            excinfo.value.close()
            request = urllib.request.Request(f"{server.base_url}/v1/jobs", method="GET")
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

    @pytest.mark.parametrize(
        "name,value,reason",
        [
            ("scheduler", "heapq", "unknown SystemConfig override 'scheduler'"),
            ("cache_array", "dict", "unknown SystemConfig override 'cache_array'"),
            ("packed_streams", False, "unknown SystemConfig override"),
            ("message_pooling", False, "unknown SystemConfig override"),
            ("sanitize", True, "unknown SystemConfig override 'sanitize'"),
            ("jobs", 4, "unknown SystemConfig override 'jobs'"),
            ("slack", -1, "slack must be non-negative"),
            ("block_size_bytes", 48, "block_size_bytes must be a power of two"),
            ("num_nodes", 0, "num_nodes must be positive"),
            ("cache_associativity", 0, "cache_associativity must be positive"),
            ("cache_associativity", -4, "cache_associativity must be positive"),
            ("cache_size_bytes", 0, "cache_size_bytes must be positive"),
            ("cache_size_bytes", 1000, "cache_size_bytes must be a multiple"),
            ("instructions_per_ns", 0, "instructions_per_ns must be positive"),
        ],
    )
    def test_spec_with_a_bad_override_is_400(self, name, value, reason):
        # Removed fields, out-of-range values and bad cache geometry are
        # rejected at submit, never accepted and then failed in a worker.
        document = SubmitRequest(spec=ExperimentSpec.make("oltp")).to_wire()
        document["spec"]["overrides"] = [[name, value]]
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
            jobs_submitted = server.manager.metrics.jobs_submitted
        assert excinfo.value.code == 400
        assert reason in body["error"]
        assert jobs_submitted == 0

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


#: The client call behind each job route; each raises on a non-200 answer.
JOB_ROUTES = {
    "GET": lambda client, job_id: client.status(job_id),
    "DELETE": lambda client, job_id: client.cancel(job_id),
    "GET events": lambda client, job_id: list(client.stream(job_id)),
}


@pytest.fixture
def evicting_server(monkeypatch):
    """A gateway keeping two finished jobs, after three runs of ``SPEC``:
    ``job-1`` (computed) is evicted, ``job-2`` and ``job-3`` (hits) held."""
    monkeypatch.setattr(manager_module, "RETAINED_TERMINAL_JOBS", 2)
    with (
        ServerThread(backend=InlinePoolBackend(), cache=ResultCache()) as server,
        ServiceClient(server.base_url) as client,
    ):
        first = client.run(SPEC)
        for _ in range(2):
            client.run(SPEC)
        yield server, client, first


class TestEvictionOverHttp:
    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_evicted_job_is_410_gone(self, evicting_server, route):
        _server, client, _first = evicting_server
        with pytest.raises(JobGoneError) as excinfo:
            JOB_ROUTES[route](client, "job-1")
        assert excinfo.value.status == 410
        assert "resubmit the same spec" in str(excinfo.value)
        JOB_ROUTES[route](client, "job-2")  # a held job still answers

    def test_wait_and_raw_status_line_on_an_evicted_job(self, evicting_server):
        server, client, _first = evicting_server
        with pytest.raises(JobGoneError):
            client.wait("job-1")
        request = urllib.request.Request(f"{server.base_url}/v1/jobs/job-1")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert (excinfo.value.code, excinfo.value.reason) == (410, "Gone")
        excinfo.value.close()

    def test_resubmitting_an_evicted_spec_is_a_cache_hit(self, evicting_server):
        server, client, first = evicting_server
        assert client.run(SPEC) == first
        snapshot = client.metrics()
        assert snapshot["replicas"]["replicas_computed"] == 1
        assert snapshot["replicas"]["replicas_from_cache"] == 3
        assert snapshot["jobs"]["jobs_evicted"] == 2
        assert snapshot["jobs"]["jobs_retained"] == 2
        assert server.call(lambda: sorted(server.manager.jobs)) == ["job-3", "job-4"]

    @pytest.mark.parametrize("job_id", ["job-999999", "job-x", "job-01"])
    @pytest.mark.parametrize("route", sorted(JOB_ROUTES))
    def test_never_issued_or_malformed_id_stays_404(
        self, evicting_server, route, job_id
    ):
        _server, client, _first = evicting_server
        with pytest.raises(ServiceClientError) as excinfo:
            JOB_ROUTES[route](client, job_id)
        assert excinfo.value.status == 404
        assert not isinstance(excinfo.value, JobGoneError)


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

    def test_finished_job_close_delimited_stream_is_one_write(self, writes):
        with ServerThread(jobs=1) as server:
            with ServiceClient(server.base_url) as client:
                job_id = client.submit(SPEC).job_id
                events = list(client.stream(job_id))
            writes.clear()
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(
                    f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                    "Host: loopback\r\nConnection: close\r\n\r\n".encode("ascii")
                )
                response = sock.makefile("rb").read()
        assert len(writes) == 1 and writes[0] == response
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Connection: close" in head.split(b"\r\n")
        assert b"chunked" not in head
        streamed = [event_from_wire(json.loads(line)) for line in body.splitlines()]
        assert streamed == events


class TestHealthAndMetricsOverHttp:
    def test_metrics_snapshot_validates_and_reports_clients(self):
        with (
            ServerThread(jobs=1, client_weights={"vip": 3}) as server,
            ServiceClient(server.base_url, client_id="vip") as client,
        ):
            client.run(SPEC)
            snapshot = client.metrics()
            health = client.health()
        validate_metrics_snapshot(snapshot)
        assert snapshot["clients"]["vip"]["weight"] == 3
        assert snapshot["clients"]["vip"]["served_cost"] > 0
        assert snapshot["jobs"]["jobs_completed"] == 1
        assert health == {"degraded": False, "components": {}}
