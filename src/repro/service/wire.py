"""Typed wire messages of the network gateway (`repro.service.server`).

Every request and response that crosses the HTTP boundary is a frozen
dataclass here with a ``to_wire()`` / ``from_wire()`` pair, so both ends
of the connection share one schema-versioned vocabulary instead of
hand-rolled dictionaries.  The envelope convention matches the repo's other
JSON artifacts (cache entries, journal records, metrics snapshots): every
document carries ``wire_version`` and a ``kind`` discriminator, and
decoding validates both before touching the payload.

Hand-rolled dictionaries are **deliberately rejected**: a document without
the envelope raises :class:`WireError` with a pointed message naming the
typed class to use, so callers migrating from the pre-gateway dict idiom
get an actionable error instead of a silent schema drift.

Job events stream over the wire through :func:`event_to_wire` /
:func:`event_from_wire`, which round-trip every
:class:`~repro.service.events.JobEvent` subclass bit-identically
(``JobCompleted`` results ride as the same JSON payload the result cache
stores, so a streamed result decodes exactly like a cached one).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Type

from repro.api.spec import ExperimentSpec, ExperimentSpecError
from repro.service.cache import payload_to_result, result_to_payload
from repro.service.events import (
    DEFAULT_CLIENT_ID,
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobEvent,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
    ReplicaRetried,
    ServiceDegraded,
)
from repro.system.results import RunResult

#: Version of the gateway wire format (bump on incompatible change).
WIRE_SCHEMA_VERSION = 1

#: ``kind`` discriminators of the wire documents.
KIND_SUBMIT_REQUEST = "repro.service.submit-request"
KIND_SUBMIT_ACCEPTED = "repro.service.submit-accepted"
KIND_SUBMIT_REJECTED = "repro.service.submit-rejected"
KIND_JOB_STATUS = "repro.service.job-status"
KIND_CANCEL_RESPONSE = "repro.service.cancel-response"
KIND_EVENT = "repro.service.event"
KIND_ERROR = "repro.service.error"


class WireError(ValueError):
    """A wire document does not match the typed schema."""


def _check_envelope(
    document: Any, expected_kind: str, type_name: str
) -> Mapping[str, Any]:
    """Validate the ``wire_version``/``kind`` envelope; returns the document."""
    if not isinstance(document, Mapping):
        raise WireError(
            f"wire document must be an object, got {type(document).__name__}"
        )
    if "wire_version" not in document or "kind" not in document:
        raise WireError(
            "hand-rolled request dictionaries are not accepted by the "
            f"gateway: build a repro.service.wire.{type_name} and send "
            f"its .to_wire() document (missing the wire_version/kind "
            f"envelope in {sorted(document)!r})"
        )
    if document["wire_version"] != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"unsupported wire_version {document['wire_version']!r} "
            f"(this build speaks {WIRE_SCHEMA_VERSION})"
        )
    if document["kind"] != expected_kind:
        raise WireError(
            f"wire document has kind {document['kind']!r}, "
            f"expected {expected_kind!r}"
        )
    return document


def _envelope(kind: str) -> Dict[str, Any]:
    return {"wire_version": WIRE_SCHEMA_VERSION, "kind": kind}


# ---------------------------------------------------------------- requests
@dataclass(frozen=True)
class SubmitRequest:
    """``POST /v1/jobs``: one experiment spec plus scheduling parameters.

    ``client_id`` names the deficit-round-robin lane the job is scheduled
    in (see :mod:`repro.service.fairness`); ``priority`` orders jobs
    *within* a lane (lower runs earlier, ties FIFO).
    """

    spec: ExperimentSpec
    priority: int = 0
    client_id: str = DEFAULT_CLIENT_ID

    def to_wire(self) -> Dict[str, Any]:
        document = _envelope(KIND_SUBMIT_REQUEST)
        document["spec"] = self.spec.as_document()
        document["priority"] = self.priority
        document["client"] = self.client_id
        return document

    @classmethod
    def from_wire(cls, document: Any) -> "SubmitRequest":
        body = _check_envelope(document, KIND_SUBMIT_REQUEST, "SubmitRequest")
        if "spec" not in body:
            raise WireError("submit request is missing its 'spec' document")
        try:
            spec = ExperimentSpec.from_document(body["spec"])
        except ExperimentSpecError as error:
            raise WireError(f"invalid experiment spec: {error}") from None
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise WireError(f"priority must be an integer, got {priority!r}")
        client = body.get("client", DEFAULT_CLIENT_ID)
        if not isinstance(client, str) or not client:
            raise WireError(f"client must be a non-empty string, got {client!r}")
        return cls(spec=spec, priority=priority, client_id=client)


# --------------------------------------------------------------- responses
@dataclass(frozen=True)
class SubmitAccepted:
    """``202``: the job passed admission and its replicas are queued.

    ``result`` is set when the job completed at admission (every replica
    came from the result cache), so the caller needs no second request;
    the key is written only then, and a document without it decodes to
    ``None``.
    """

    job_id: str
    label: str
    total_replicas: int
    priority: int
    client_id: str
    result: Optional[RunResult] = None

    def to_wire(self) -> Dict[str, Any]:
        document = _envelope(KIND_SUBMIT_ACCEPTED)
        document.update(
            job_id=self.job_id,
            label=self.label,
            total_replicas=self.total_replicas,
            priority=self.priority,
            client=self.client_id,
        )
        if self.result is not None:
            document["result"] = result_to_payload(self.result)
        return document

    @classmethod
    def from_wire(cls, document: Any) -> "SubmitAccepted":
        body = _check_envelope(document, KIND_SUBMIT_ACCEPTED, "SubmitAccepted")
        try:
            payload = body.get("result")
            return cls(
                job_id=body["job_id"],
                label=body["label"],
                total_replicas=body["total_replicas"],
                priority=body["priority"],
                client_id=body["client"],
                result=payload_to_result(payload) if payload is not None else None,
            )
        except KeyError as error:
            raise WireError(f"submit acceptance is missing field {error}") from None


@dataclass(frozen=True)
class SubmitRejected:
    """``429``: admission control rejected the job; retry after a delay.

    ``retry_after_s`` is the manager's cost-rate estimate of when the
    pending backlog will have drained enough to admit this job (the same
    number the HTTP layer rounds up into its ``Retry-After`` header).
    """

    pending_cost: int
    budget: int
    retry_after_s: float

    def to_wire(self) -> Dict[str, Any]:
        document = _envelope(KIND_SUBMIT_REJECTED)
        document.update(
            pending_cost=self.pending_cost,
            budget=self.budget,
            retry_after_s=self.retry_after_s,
        )
        return document

    @classmethod
    def from_wire(cls, document: Any) -> "SubmitRejected":
        body = _check_envelope(document, KIND_SUBMIT_REJECTED, "SubmitRejected")
        try:
            return cls(
                pending_cost=body["pending_cost"],
                budget=body["budget"],
                retry_after_s=body["retry_after_s"],
            )
        except KeyError as error:
            raise WireError(f"submit rejection is missing field {error}") from None


@dataclass(frozen=True)
class JobStatus:
    """``GET /v1/jobs/{id}``: lifecycle state plus the result when done.

    ``result`` is present iff ``state == "completed"``; ``error`` carries
    the failure (or cancellation) detail for terminal non-success states.
    """

    job_id: str
    state: str
    label: str
    client_id: str
    priority: int
    completed_replicas: int
    total_replicas: int
    result: Optional[RunResult] = None
    error: Optional[str] = None

    def to_wire(self) -> Dict[str, Any]:
        document = _envelope(KIND_JOB_STATUS)
        document.update(
            job_id=self.job_id,
            state=self.state,
            label=self.label,
            client=self.client_id,
            priority=self.priority,
            completed_replicas=self.completed_replicas,
            total_replicas=self.total_replicas,
            result=(
                result_to_payload(self.result) if self.result is not None else None
            ),
            error=self.error,
        )
        return document

    @classmethod
    def from_wire(cls, document: Any) -> "JobStatus":
        body = _check_envelope(document, KIND_JOB_STATUS, "JobStatus")
        try:
            payload = body["result"]
            return cls(
                job_id=body["job_id"],
                state=body["state"],
                label=body["label"],
                client_id=body["client"],
                priority=body["priority"],
                completed_replicas=body["completed_replicas"],
                total_replicas=body["total_replicas"],
                result=payload_to_result(payload) if payload is not None else None,
                error=body.get("error"),
            )
        except KeyError as error:
            raise WireError(f"job status is missing field {error}") from None


@dataclass(frozen=True)
class CancelResponse:
    """``DELETE /v1/jobs/{id}``: whether the cancel changed anything.

    ``cancelled`` is ``True`` iff the job was still live when the request
    arrived; ``state`` is the job's state *after* the request either way.
    """

    job_id: str
    cancelled: bool
    state: str

    def to_wire(self) -> Dict[str, Any]:
        document = _envelope(KIND_CANCEL_RESPONSE)
        document.update(job_id=self.job_id, cancelled=self.cancelled, state=self.state)
        return document

    @classmethod
    def from_wire(cls, document: Any) -> "CancelResponse":
        body = _check_envelope(document, KIND_CANCEL_RESPONSE, "CancelResponse")
        try:
            return cls(
                job_id=body["job_id"],
                cancelled=body["cancelled"],
                state=body["state"],
            )
        except KeyError as error:
            raise WireError(f"cancel response is missing field {error}") from None


# ------------------------------------------------------------------ errors
def error_to_wire(status: int, message: str) -> Dict[str, Any]:
    """The gateway's generic error body (4xx/5xx responses)."""
    document = _envelope(KIND_ERROR)
    document.update(status=status, error=message)
    return document


# ------------------------------------------------------------------ events
#: Every streamable event type, by its wire name.
_EVENT_TYPES: Dict[str, Type[JobEvent]] = {
    cls.__name__: cls
    for cls in (
        JobAdmitted,
        ReplicaCompleted,
        ReplicaRetried,
        ReplicaFailed,
        ServiceDegraded,
        JobProgress,
        JobCompleted,
        JobCancelled,
        JobFailed,
    )
}


def event_to_wire(event: JobEvent) -> Dict[str, Any]:
    """One job event as its NDJSON wire document."""
    document = _envelope(KIND_EVENT)
    document["event"] = type(event).__name__
    document["terminal"] = event.terminal
    for field in fields(event):
        value = getattr(event, field.name)
        document[field.name] = (
            result_to_payload(value) if isinstance(value, RunResult) else value
        )
    return document


def event_from_wire(document: Any) -> JobEvent:
    """Rebuild the typed event from :func:`event_to_wire` output."""
    body = _check_envelope(document, KIND_EVENT, "event_to_wire")
    name = body.get("event")
    event_type = _EVENT_TYPES.get(name)
    if event_type is None:
        raise WireError(f"unknown event type {name!r}")
    kwargs: Dict[str, Any] = {}
    for field in fields(event_type):
        if field.name not in body:
            raise WireError(f"{name} event is missing field {field.name!r}")
        value = body[field.name]
        if field.name == "result" and event_type is JobCompleted:
            value = payload_to_result(value)
        kwargs[field.name] = value
    return event_type(**kwargs)
