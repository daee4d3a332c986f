"""Tests for the typed gateway wire format.

Every request/response dataclass round-trips through ``to_wire`` /
``from_wire`` losslessly; streamed events (including a ``JobCompleted``
carrying a full ``RunResult``) round-trip bit-identically; and documents
without the schema envelope -- the old hand-rolled-dict idiom -- are
rejected with a pointed error naming the typed class to use.
"""

from __future__ import annotations

import json

import pytest

from repro import api
from repro.api.spec import ExperimentSpec
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    CancelResponse,
    JobStatus,
    SubmitAccepted,
    SubmitRejected,
    SubmitRequest,
    WireError,
    error_to_wire,
    event_from_wire,
    event_to_wire,
)
from repro.service.events import (
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
    ReplicaRetried,
    ServiceDegraded,
)

SPEC = ExperimentSpec.make("oltp", protocol="diropt", scale=0.05, slack=2)


def _json_roundtrip(document):
    """Force the document through actual JSON text, as the socket would."""
    return json.loads(json.dumps(document, sort_keys=True))


class TestRequestResponses:
    def test_submit_request_roundtrip(self):
        request = SubmitRequest(spec=SPEC, priority=3, client_id="nightly")
        decoded = SubmitRequest.from_wire(_json_roundtrip(request.to_wire()))
        assert decoded == request
        assert decoded.spec is not request.spec  # rebuilt, not aliased

    def test_submit_request_defaults(self):
        document = SubmitRequest(spec=SPEC).to_wire()
        decoded = SubmitRequest.from_wire(document)
        assert decoded.priority == 0 and decoded.client_id == "default"

    def test_submit_accepted_roundtrip(self):
        accepted = SubmitAccepted(
            job_id="job-7",
            label=SPEC.label,
            total_replicas=3,
            priority=1,
            client_id="a",
        )
        document = accepted.to_wire()
        assert "result" not in document
        assert SubmitAccepted.from_wire(_json_roundtrip(document)) == accepted

    def test_submit_accepted_roundtrip_with_result(self):
        result = api.run_experiment(spec=SPEC)
        accepted = SubmitAccepted(
            job_id="job-8",
            label=SPEC.label,
            total_replicas=1,
            priority=0,
            client_id="a",
            result=result,
        )
        decoded = SubmitAccepted.from_wire(_json_roundtrip(accepted.to_wire()))
        assert decoded == accepted
        assert decoded.result == result  # bit-identical through the wire

    def test_submit_accepted_parent_format_parses(self):
        # A 202 body from a gateway that never sends a result.
        document = {
            "wire_version": WIRE_SCHEMA_VERSION,
            "kind": "repro.service.submit-accepted",
            "job_id": "job-9",
            "label": SPEC.label,
            "total_replicas": 2,
            "priority": 0,
            "client": "default",
        }
        assert SubmitAccepted.from_wire(document) == SubmitAccepted(
            job_id="job-9",
            label=SPEC.label,
            total_replicas=2,
            priority=0,
            client_id="default",
        )

    def test_submit_rejected_roundtrip(self):
        rejected = SubmitRejected(pending_cost=9000, budget=5000, retry_after_s=1.25)
        assert SubmitRejected.from_wire(_json_roundtrip(rejected.to_wire())) == rejected

    def test_job_status_roundtrip_with_result(self):
        result = api.run_experiment(spec=SPEC)
        status = JobStatus(
            job_id="job-1",
            state="completed",
            label=SPEC.label,
            client_id="a",
            priority=0,
            completed_replicas=1,
            total_replicas=1,
            result=result,
        )
        decoded = JobStatus.from_wire(_json_roundtrip(status.to_wire()))
        assert decoded == status
        assert decoded.result == result  # bit-identical through the wire

    def test_job_status_roundtrip_without_result(self):
        status = JobStatus(
            job_id="job-2",
            state="cancelled",
            label=SPEC.label,
            client_id="a",
            priority=0,
            completed_replicas=0,
            total_replicas=1,
            error="job job-2 was cancelled",
        )
        assert JobStatus.from_wire(_json_roundtrip(status.to_wire())) == status

    def test_cancel_response_roundtrip(self):
        response = CancelResponse(job_id="job-3", cancelled=True, state="cancelled")
        assert CancelResponse.from_wire(_json_roundtrip(response.to_wire())) == response

    def test_error_document_carries_envelope(self):
        document = error_to_wire(404, "no such job")
        assert document["wire_version"] == WIRE_SCHEMA_VERSION
        assert document["status"] == 404 and document["error"] == "no such job"


class TestEnvelopeRejection:
    def test_hand_rolled_dict_gets_pointed_error(self):
        with pytest.raises(WireError) as excinfo:
            SubmitRequest.from_wire({"spec": SPEC.as_document(), "priority": 0})
        message = str(excinfo.value)
        assert "hand-rolled" in message
        assert "SubmitRequest" in message  # names the class to migrate to

    def test_wrong_wire_version_rejected(self):
        document = SubmitRequest(spec=SPEC).to_wire()
        document["wire_version"] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(WireError, match="wire_version"):
            SubmitRequest.from_wire(document)

    def test_wrong_kind_rejected(self):
        document = SubmitRequest(spec=SPEC).to_wire()
        with pytest.raises(WireError, match="kind"):
            SubmitAccepted.from_wire(document)

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="object"):
            SubmitRequest.from_wire([1, 2, 3])

    def test_invalid_spec_surfaces_spec_error_text(self):
        document = SubmitRequest(spec=SPEC).to_wire()
        document["spec"] = {"workload": "no-such-workload"}
        with pytest.raises(WireError, match="spec"):
            SubmitRequest.from_wire(document)

    def test_bad_priority_and_client_rejected(self):
        document = SubmitRequest(spec=SPEC).to_wire()
        document["priority"] = "high"
        with pytest.raises(WireError, match="priority"):
            SubmitRequest.from_wire(document)
        document = SubmitRequest(spec=SPEC).to_wire()
        document["client"] = ""
        with pytest.raises(WireError, match="client"):
            SubmitRequest.from_wire(document)


class TestEventRoundtrip:
    def test_every_event_type_roundtrips(self):
        result = api.run_experiment(spec=SPEC)
        events = [
            JobAdmitted("job-1", label=SPEC.label, total_replicas=2, priority=0),
            ReplicaCompleted(
                "job-1", replica_index=0, source="computed", runtime_ns=123
            ),
            ReplicaRetried(
                "job-1",
                replica_index=1,
                attempt=1,
                error="OSError('disk')",
                backoff_s=0.05,
            ),
            ReplicaFailed(
                "job-1",
                replica_index=1,
                attempts=3,
                error="OSError('disk')",
                permanent=False,
            ),
            ServiceDegraded("job-1", component="cache", reason="disk full"),
            JobProgress("job-1", completed=1, total=2, best_runtime_ns=123, misses=9),
            JobCompleted("job-1", result=result),
            JobCancelled("job-1"),
            JobFailed("job-1", error="RuntimeError('boom')"),
        ]
        for event in events:
            decoded = event_from_wire(_json_roundtrip(event_to_wire(event)))
            assert decoded == event
            assert decoded.terminal == event.terminal
            assert decoded.informational == event.informational

    def test_completed_result_is_bit_identical(self):
        result = api.run_experiment(spec=SPEC)
        decoded = event_from_wire(
            _json_roundtrip(event_to_wire(JobCompleted("job-1", result=result)))
        )
        assert decoded.result == result

    def test_wire_document_flags_terminal(self):
        assert event_to_wire(JobCancelled("job-1"))["terminal"] is True
        assert (
            event_to_wire(
                JobProgress("job-1", completed=1, total=2, best_runtime_ns=1, misses=0)
            )["terminal"]
            is False
        )

    def test_unknown_event_type_rejected(self):
        document = event_to_wire(JobCancelled("job-1"))
        document["event"] = "JobExploded"
        with pytest.raises(WireError, match="unknown event"):
            event_from_wire(document)

    def test_missing_event_field_rejected(self):
        document = event_to_wire(
            ReplicaCompleted("job-1", replica_index=0, source="computed", runtime_ns=1)
        )
        del document["runtime_ns"]
        with pytest.raises(WireError, match="runtime_ns"):
            event_from_wire(document)
