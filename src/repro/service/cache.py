"""Content-addressed result cache: canonical keys, wire format, stores.

The cache key of one replica is the SHA-256 of the canonical JSON form of
``(effective SystemConfig, scaled WorkloadProfile, replica_index,
result-schema version)`` -- see :func:`repro.api.spec.canonical_experiment`
for what "canonical" means (override order, alias spelling, restated
defaults and result-neutral checking knobs all hash identically; the seed and
replica count live inside the config and are part of the key).

Cached values are the schema-versioned JSON encoding of a
:class:`~repro.system.results.RunResult`.  Decoding always builds a *fresh*
``RunResult`` -- both so a disk entry and a memory entry replay identically
and so callers that mutate merged results (the minimum-replica selection
writes ``result.replicas``) can never corrupt the stored copy.  Round
trips are bit-identical: every field of ``RunResult`` is JSON-exact (ints,
strings and IEEE doubles), which the test suite verifies against fresh
computation for all three protocols.

:class:`ResultCache` layers an in-memory LRU over an optional on-disk
store (``<dir>/<key[:2]>/<key>.json``, written atomically via rename), so
a long-running service keeps its hot set in memory while surviving
restarts, and concurrent services can share one directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.spec import canonical_experiment
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.workloads.profiles import WorkloadProfile

#: Version of the cached-result wire format.  Part of every cache key, so
#: a schema change can never replay stale entries.
RESULT_SCHEMA_VERSION = 1

#: ``kind`` discriminator of cache-entry JSON documents.
RESULT_KIND = "repro.service.result"


class CacheError(ValueError):
    """A cache entry does not match the expected schema or key."""


# ------------------------------------------------------------------- keys
def canonical_key_document(
    config: SystemConfig, profile: WorkloadProfile, replica_index: int
) -> Dict[str, Any]:
    """The exact document hashed into a replica's cache key."""
    document = canonical_experiment(config, profile)
    document["replica_index"] = replica_index
    document["result_schema"] = RESULT_SCHEMA_VERSION
    return document


def replica_key(
    config: SystemConfig, profile: WorkloadProfile, replica_index: int
) -> str:
    """Content address of one ``(config, profile, replica)`` result."""
    if not 0 <= replica_index < config.perturbation_replicas:
        raise ValueError(
            f"replica_index {replica_index} out of range for "
            f"{config.perturbation_replicas} replicas"
        )
    document = canonical_key_document(config, profile, replica_index)
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def entry_keys(config: SystemConfig, profile: WorkloadProfile) -> List[str]:
    """Cache keys of every replica of one experiment entry, in order."""
    return [
        replica_key(config, profile, index)
        for index in range(config.perturbation_replicas)
    ]


# ------------------------------------------------------------ wire format
def result_to_payload(result: RunResult) -> Dict[str, Any]:
    """``RunResult`` as a plain JSON-safe dictionary (all fields)."""
    payload: Dict[str, Any] = {}
    for field in fields(result):
        value = getattr(result, field.name)
        payload[field.name] = dict(value) if isinstance(value, dict) else value
    return payload


def payload_to_result(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a fresh ``RunResult`` from :func:`result_to_payload` output."""
    names = {field.name for field in fields(RunResult)}
    unknown = set(payload) - names
    if unknown:
        raise CacheError(f"result payload has unknown fields {sorted(unknown)}")
    return RunResult(**payload)


def encode_entry(key: str, result: RunResult) -> Dict[str, Any]:
    """The JSON document stored for one cached replica result."""
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "kind": RESULT_KIND,
        "key": key,
        "result": result_to_payload(result),
    }


def decode_entry(document: Any, expected_key: Optional[str] = None) -> RunResult:
    """Validate and decode one cache-entry document into a fresh result."""
    if not isinstance(document, dict):
        raise CacheError(
            f"cache entry must be an object, got {type(document).__name__}"
        )
    if document.get("kind") != RESULT_KIND:
        raise CacheError(f"cache entry has kind {document.get('kind')!r}")
    if document.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise CacheError(
            f"unsupported cache schema_version {document.get('schema_version')!r}"
        )
    if expected_key is not None and document.get("key") != expected_key:
        raise CacheError(
            f"cache entry key {document.get('key')!r} does not match the "
            f"requested key {expected_key!r}"
        )
    return payload_to_result(document["result"])


# ------------------------------------------------------------------ store
@dataclass
class CacheStats:
    """Hit/miss accounting, merged into the service metrics snapshot."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    invalid_entries: int = 0
    disk_put_errors: int = 0
    disk_get_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {field.name: getattr(self, field.name) for field in fields(self)}


class ResultCache:
    """In-memory LRU over an optional on-disk content-addressed store.

    ``memory_entries`` bounds the LRU (oldest entries fall back to disk, or
    are dropped entirely for a memory-only cache).  ``path=None`` keeps the
    cache purely in memory.  All operations are thread-safe; entries are
    immutable JSON documents, so cross-process sharing of one directory is
    safe too (writes are atomic renames).

    ``disk_budget_bytes`` bounds the on-disk store: the existing shards
    are indexed at open (least-recently-modified first), every get/put
    refreshes an entry's recency, and once the store would exceed the
    budget the least-recently-used shards are unlinked
    (``disk_evictions`` in the statistics; ``disk_bytes`` /
    ``disk_entries`` gauges report the live footprint).  The entry being
    written is never the eviction victim, so a budget smaller than one
    entry degenerates to "keep only the newest".  Evicted entries are
    simply misses later -- recomputation is always correct.

    **Degraded mode**: a disk fault (ENOSPC/EACCES on read or write, or a
    shard that no longer decodes) never propagates to callers.  The fault
    is counted (``disk_put_errors`` / ``disk_get_errors``), the cache flips
    to memory-only operation (:attr:`degraded` with
    :attr:`degraded_reason`), and service continues -- the job manager
    surfaces the transition as a ``ServiceDegraded`` event and a ``health``
    block in the metrics snapshot.
    """

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        memory_entries: int = 512,
        *,
        disk_budget_bytes: Optional[int] = None,
    ) -> None:
        if memory_entries < 0:
            raise ValueError("memory_entries must be non-negative")
        if disk_budget_bytes is not None and disk_budget_bytes < 1:
            raise ValueError("disk_budget_bytes must be positive (or None)")
        if disk_budget_bytes is not None and path is None:
            raise ValueError(
                "disk_budget_bytes needs a path: a memory-only cache has no "
                "disk store to bound"
            )
        self.path = Path(path) if path is not None else None
        self.memory_entries = memory_entries
        self.disk_budget_bytes = disk_budget_bytes
        self.stats = CacheStats()
        self.degraded = False
        self.degraded_reason = ""
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: key -> shard size in bytes, least-recently-used first.
        self._disk_index: "OrderedDict[str, int]" = OrderedDict()
        self._disk_bytes = 0
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            if self.disk_budget_bytes is not None:
                self._scan_disk()
                self._evict_disk()

    # ------------------------------------------------------------- lookup
    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or ``None``.

        Always decodes a fresh ``RunResult``; mutating the returned object
        never affects the stored entry.
        """
        with self._lock:
            document = self._memory.get(key)
            if document is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                if key in self._disk_index:
                    self._disk_index.move_to_end(key)
        if document is not None:
            # A memory hit is still a *use* of the disk shard: refresh its
            # recency too, or the disk LRU would evict exactly the entries
            # hot enough to live in memory (and a restart, which rebuilds
            # order from shard mtimes, would see them as cold).
            self._touch_disk(key)
            return decode_entry(document, expected_key=key)
        document = self._read_disk(key)
        if document is None:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            result = decode_entry(document, expected_key=key)
        except CacheError as error:
            with self._lock:
                self.stats.invalid_entries += 1
                self.stats.misses += 1
            self._degrade(f"corrupt cache shard {key[:12]}...: {error}")
            return None
        with self._lock:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._remember(key, document)
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store ``result`` under ``key`` (memory LRU + disk when configured).

        The entry is serialised immediately, so later mutation of
        ``result`` (e.g. the merge step writing ``replicas``) cannot leak
        into the cache.
        """
        document = encode_entry(key, result)
        with self._lock:
            self._remember(key, document)
            self.stats.stores += 1
        self._write_disk(key, document)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def clear_memory(self) -> None:
        """Drop the in-memory LRU (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def stats_dict(self) -> Dict[str, int]:
        with self._lock:
            out = self.stats.as_dict()
            out["disk_bytes"] = self._disk_bytes
            out["disk_entries"] = len(self._disk_index)
            return out

    # ------------------------------------------------------------ internals
    def _remember(self, key: str, document: Dict[str, Any]) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = document
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self.stats.memory_evictions += 1

    def _disk_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.json"

    def _scan_disk(self) -> None:
        """Index pre-existing shards, least-recently-modified first."""
        assert self.path is not None
        found = []
        for shard in self.path.glob("??/*.json"):
            try:
                stat = shard.stat()
            except OSError:
                continue
            found.append((stat.st_mtime_ns, shard.stem, stat.st_size))
        found.sort()
        with self._lock:
            for _mtime, key, size in found:
                self._disk_index[key] = size
                self._disk_bytes += size

    def _note_disk_entry(self, key: str, size: int) -> None:
        """Record one live shard as most-recently-used (lock held)."""
        self._disk_bytes += size - self._disk_index.get(key, 0)
        self._disk_index[key] = size
        self._disk_index.move_to_end(key)

    def _evict_disk(self, protect: Optional[str] = None) -> None:
        """Unlink least-recently-used shards until the budget holds.

        ``protect`` (the key just written) is never the victim.  Only
        meaningful with a ``disk_budget_bytes``; a no-op otherwise.
        """
        if self.disk_budget_bytes is None or self.path is None:
            return
        while True:
            with self._lock:
                if self._disk_bytes <= self.disk_budget_bytes:
                    return
                victim = next((key for key in self._disk_index if key != protect), None)
                if victim is None:
                    return
                self._disk_bytes -= self._disk_index.pop(victim)
                self.stats.disk_evictions += 1
            try:
                self._disk_path(victim).unlink()
            except OSError:
                pass  # already gone (or shared dir): the index is advisory

    def _touch_disk(self, key: str) -> None:
        """Best-effort mtime refresh of ``key``'s shard (hit bookkeeping)."""
        if self.path is None or self.degraded:
            return
        try:
            os.utime(self._disk_path(key))
        except OSError:
            pass  # shard evicted meanwhile (or shared dir): best effort

    def _degrade(self, reason: str) -> None:
        """Flip to memory-only operation after a disk fault (latching)."""
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        if self.path is None or self.degraded:
            return None
        target = self._disk_path(key)
        try:
            with open(target, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            with self._lock:
                if key in self._disk_index:
                    self._disk_index.move_to_end(key)
            # Persist the read recency: a reopened cache rebuilds its LRU
            # order from shard mtimes (``_scan_disk``), so without the
            # touch every restart would evict by *write* age and throw
            # away the most-read entries first.
            try:
                os.utime(target)
            except OSError:
                pass  # concurrent eviction or read-only share: best effort
            return document
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            with self._lock:
                self.stats.invalid_entries += 1
                self.stats.disk_get_errors += 1
            self._degrade(f"disk read of {key[:12]}... failed: {error}")
            return None

    def _write_disk(self, key: str, document: Dict[str, Any]) -> None:
        if self.path is None or self.degraded:
            return
        target = self._disk_path(key)
        scratch: Optional[Path] = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            scratch = target.parent / f"{target.name}.tmp{os.getpid()}"
            with open(scratch, "w", encoding="utf-8") as handle:
                json.dump(document, handle, sort_keys=True, separators=(",", ":"))
            os.replace(scratch, target)
            if self.disk_budget_bytes is not None:
                with self._lock:
                    self._note_disk_entry(key, target.stat().st_size)
                self._evict_disk(protect=key)
        except OSError as error:
            with self._lock:
                self.stats.disk_put_errors += 1
            self._degrade(f"disk write of {key[:12]}... failed: {error}")
            if scratch is not None:
                try:
                    scratch.unlink()
                except OSError:
                    pass
