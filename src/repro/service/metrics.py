"""Service metrics: queue depth, hit/miss, admission, worker utilisation.

:class:`ServiceMetrics` is plain counters and gauges updated inline by the
job manager; :meth:`ServiceMetrics.snapshot` renders them as a
schema-versioned JSON document that ``python -m repro.service
--metrics-out`` writes and CI archives as an artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Version of the metrics snapshot document.  v2 added the ``faults`` and
#: ``health`` sections plus the recovery counters; v3 added the
#: ``clients`` section (per-client weight / served cost / backlog from the
#: deficit-round-robin scheduler) and the disk-eviction cache statistics;
#: v4 added the job-retention counters ``jobs_evicted`` and
#: ``jobs_retained`` to the ``jobs`` section.
METRICS_SCHEMA_VERSION = 4

#: ``kind`` discriminator of metrics snapshot documents.
METRICS_KIND = "repro.service.metrics"

_SECTION_FIELDS = {
    "jobs": (
        "jobs_submitted",
        "jobs_rejected",
        "jobs_completed",
        "jobs_cancelled",
        "jobs_failed",
        "jobs_recovered",
        "jobs_evicted",
        "jobs_retained",
    ),
    "replicas": (
        "replicas_computed",
        "replicas_from_cache",
        "replicas_deduped",
        "replicas_skipped_cancelled",
    ),
    "faults": (
        "replicas_retried",
        "replicas_quarantined",
        "worker_crashes",
        "replica_timeouts",
    ),
    "queue": (
        "queue_depth",
        "peak_queue_depth",
        "pending_cost",
        "peak_pending_cost",
    ),
    "workers": ("workers_total", "workers_busy", "peak_workers_busy"),
}


class MetricsSchemaError(ValueError):
    """A metrics snapshot does not match the schema."""


@dataclass
class ServiceMetrics:
    """Counters and gauges describing one job manager's lifetime."""

    workers_total: int = 1

    # Job lifecycle.
    jobs_submitted: int = 0
    jobs_rejected: int = 0
    jobs_completed: int = 0
    jobs_cancelled: int = 0
    jobs_failed: int = 0
    jobs_recovered: int = 0
    # Finished jobs dropped from the registry, and the jobs it holds (set
    # by the manager when it takes a snapshot).
    jobs_evicted: int = 0
    jobs_retained: int = 0

    # Replica outcomes.
    replicas_computed: int = 0
    replicas_from_cache: int = 0
    replicas_deduped: int = 0
    replicas_skipped_cancelled: int = 0

    # Fault handling (see repro.service.manager's retry policy).
    replicas_retried: int = 0
    replicas_quarantined: int = 0
    worker_crashes: int = 0
    replica_timeouts: int = 0

    # Queue state (gauges plus high-water marks).
    queue_depth: int = 0
    peak_queue_depth: int = 0
    pending_cost: int = 0
    peak_pending_cost: int = 0

    # Worker state.
    workers_busy: int = 0
    peak_workers_busy: int = 0

    # ------------------------------------------------------------- updates
    def note_enqueued(self, units: int, cost: int) -> None:
        self.queue_depth += units
        self.pending_cost += cost
        self.peak_queue_depth = max(self.peak_queue_depth, self.queue_depth)
        self.peak_pending_cost = max(self.peak_pending_cost, self.pending_cost)

    def note_dequeued(self, cost: int) -> None:
        self.queue_depth -= 1
        self.pending_cost -= cost

    def note_worker_busy(self, delta: int) -> None:
        self.workers_busy += delta
        self.peak_workers_busy = max(self.peak_workers_busy, self.workers_busy)

    # ------------------------------------------------------------ snapshot
    def utilisation(self) -> float:
        if self.workers_total <= 0:
            return 0.0
        return self.workers_busy / self.workers_total

    def snapshot(
        self,
        cache_stats: Optional[Dict[str, int]] = None,
        health: Optional[Dict[str, Any]] = None,
        clients: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> Dict[str, Any]:
        """The schema-v4 JSON document archived by CI and the perf harness.

        ``health`` is the manager's degradation report (see
        :meth:`repro.service.manager.JobManager.health`); a snapshot taken
        without one reports a healthy service.  ``clients`` is the
        fair-scheduler ledger (per-client weight, served cost/units and
        backlog, see
        :meth:`repro.service.fairness.DeficitRoundRobinQueue.clients_dict`).
        """
        document: Dict[str, Any] = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "kind": METRICS_KIND,
        }
        for section, names in _SECTION_FIELDS.items():
            document[section] = {name: getattr(self, name) for name in names}
        document["workers"]["utilisation"] = self.utilisation()
        document["cache"] = dict(cache_stats) if cache_stats else {}
        document["clients"] = (
            {name: dict(body) for name, body in clients.items()}
            if clients is not None
            else {}
        )
        document["health"] = (
            dict(health)
            if health is not None
            else {"degraded": False, "components": {}}
        )
        return document


def validate_metrics_snapshot(document: Any) -> None:
    """Raise :class:`MetricsSchemaError` unless ``document`` matches."""
    if not isinstance(document, dict):
        raise MetricsSchemaError(
            f"snapshot must be an object, got {type(document).__name__}"
        )
    if document.get("kind") != METRICS_KIND:
        raise MetricsSchemaError(f"snapshot has kind {document.get('kind')!r}")
    if document.get("schema_version") != METRICS_SCHEMA_VERSION:
        raise MetricsSchemaError(
            f"unsupported schema_version {document.get('schema_version')!r}"
        )
    for section, names in _SECTION_FIELDS.items():
        body = document.get(section)
        if not isinstance(body, dict):
            raise MetricsSchemaError(f"snapshot is missing section {section!r}")
        for name in names:
            if name not in body:
                raise MetricsSchemaError(
                    f"snapshot section {section!r} is missing field {name!r}"
                )
    if "cache" not in document:
        raise MetricsSchemaError("snapshot is missing section 'cache'")
    if not isinstance(document.get("clients"), dict):
        raise MetricsSchemaError(
            "snapshot is missing the 'clients' fair-scheduling section"
        )
    health = document.get("health")
    if not isinstance(health, dict) or "degraded" not in health:
        raise MetricsSchemaError(
            "snapshot is missing a 'health' section with a 'degraded' flag"
        )
