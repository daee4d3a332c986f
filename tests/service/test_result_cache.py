"""Tests for the content-addressed result cache.

The headline properties: cache keys are stable under everything that
cannot change a simulated result, and cache hits replay
**bit-identically** to fresh computation for all three protocols.  Cached
replay through the job manager is covered in ``test_manager.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api.spec import ExperimentSpec
from repro.service.cache import (
    RESULT_KIND,
    RESULT_SCHEMA_VERSION,
    CacheError,
    ResultCache,
    decode_entry,
    encode_entry,
    entry_keys,
    payload_to_result,
    replica_key,
    result_to_payload,
)
from repro.service.faults import (
    SITE_CACHE_DISK_GET,
    SITE_CACHE_DISK_PUT,
    Fault,
    FaultPlan,
)
from repro.system.results import RunResult
from tests.service.io_faults import inject_cache_faults

#: Small enough that a full three-protocol run stays fast.
SCALE = 0.05


def _entry(protocol="ts-snoop", **overrides):
    spec = ExperimentSpec.make("oltp", protocol=protocol, scale=SCALE, **overrides)
    return spec.config(), spec.profile()


class TestReplicaKey:
    def test_key_is_hex_sha256(self):
        config, profile = _entry()
        key = replica_key(config, profile, 0)
        assert len(key) == 64 and int(key, 16) >= 0

    def test_key_stable_under_alias_and_restated_defaults(self):
        plain = _entry()
        restated = _entry(num_nodes=16, seed=42)
        aliased_spec = ExperimentSpec.make("tpc-c", protocol="snoop", scale=SCALE)
        aliased = (aliased_spec.config(), aliased_spec.profile())
        keys = {replica_key(c, p, 0) for c, p in (plain, restated, aliased)}
        assert len(keys) == 1

    def test_key_stable_under_result_neutral_knobs(self):
        plain = _entry()
        knobbed = _entry(enable_checker=True, sanitize=True)
        assert replica_key(*plain, 0) == replica_key(*knobbed, 0)

    @pytest.mark.parametrize(
        "spec,keys",
        [
            (
                ExperimentSpec.make("oltp"),
                ["3ed9bc6955515b3f665af0af03f852223799263c5a420c52fde53b9f257be7be"],
            ),
            (
                ExperimentSpec.make(
                    "barnes",
                    protocol="diropt",
                    network="torus",
                    scale=0.05,
                    consistency="tso",
                    perturbation_replicas=2,
                    seed=7,
                ),
                [
                    "5ba6e0522f1b3b09eb3b8f5c43669f017a1d6e0c91c26b152b18d826576e102c",
                    "f43e3ede05747f92ed0c5a48f225039089d9f99d3730e2fad79ca166bfc6e8cb",
                ],
            ),
        ],
    )
    def test_keys_are_pinned(self, spec, keys):
        """On-disk result caches written by earlier releases stay valid:
        these keys were recorded before the kernel-selection knobs
        (scheduler, event_pool, batched_dispatch) left SystemConfig."""
        assert entry_keys(spec.config(), spec.profile()) == keys

    def test_key_changes_with_result_relevant_fields(self):
        config, profile = _entry(perturbation_replicas=2)
        base = replica_key(config, profile, 0)
        assert base != replica_key(config, profile, 1)
        for other in (
            _entry(protocol="diropt", perturbation_replicas=2),
            _entry(seed=7, perturbation_replicas=2),
            _entry(slack=2, perturbation_replicas=2),
        ):
            assert replica_key(*other, 0) != base

    def test_replica_index_range_checked(self):
        config, profile = _entry()
        with pytest.raises(ValueError, match="out of range"):
            replica_key(config, profile, 1)

    def test_entry_keys_order(self):
        config, profile = _entry(perturbation_replicas=3)
        keys = entry_keys(config, profile)
        assert keys == [replica_key(config, profile, i) for i in range(3)]
        assert len(set(keys)) == 3


class TestWireFormat:
    def _result(self):
        return RunResult(
            workload="oltp",
            protocol="ts-snoop",
            network="butterfly",
            runtime_ns=123,
            instructions=456,
            references=789,
            misses=12,
            cache_to_cache_misses=3,
            writebacks=4,
            nacks=5,
            retries=6,
            data_touched_mb=1.5,
            per_link_bytes=2.25,
            traffic_bytes_by_category={"data": 10, "control": 20},
            average_miss_latency_ns=7.125,
        )

    def test_payload_round_trip_is_equal_and_fresh(self):
        original = self._result()
        rebuilt = payload_to_result(result_to_payload(original))
        assert rebuilt == original
        assert rebuilt is not original
        assert (
            rebuilt.traffic_bytes_by_category
            is not original.traffic_bytes_by_category
        )

    def test_json_round_trip_is_bit_identical(self):
        original = self._result()
        blob = json.dumps(encode_entry("k" * 64, original))
        assert decode_entry(json.loads(blob), expected_key="k" * 64) == original

    def test_unknown_payload_fields_rejected(self):
        payload = result_to_payload(self._result())
        payload["bogus"] = 1
        with pytest.raises(CacheError, match="bogus"):
            payload_to_result(payload)

    def test_decode_validates_kind_schema_and_key(self):
        document = encode_entry("a" * 64, self._result())
        with pytest.raises(CacheError, match="kind"):
            decode_entry({**document, "kind": "other"})
        with pytest.raises(CacheError, match="schema_version"):
            decode_entry({**document, "schema_version": RESULT_SCHEMA_VERSION + 1})
        with pytest.raises(CacheError, match="does not match"):
            decode_entry(document, expected_key="b" * 64)
        with pytest.raises(CacheError, match="object"):
            decode_entry([document])
        assert document["kind"] == RESULT_KIND


class TestResultCache:
    def _result(self, runtime=100):
        return RunResult(
            workload="oltp",
            protocol="ts-snoop",
            network="butterfly",
            runtime_ns=runtime,
            instructions=1,
            references=1,
            misses=1,
            cache_to_cache_misses=0,
            writebacks=0,
            nacks=0,
            retries=0,
            data_touched_mb=0.0,
            per_link_bytes=0.0,
            traffic_bytes_by_category={},
            average_miss_latency_ns=0.0,
        )

    def test_memory_round_trip_returns_fresh_objects(self):
        cache = ResultCache()
        key = "a" * 64
        cache.put(key, self._result())
        first, second = cache.get(key), cache.get(key)
        assert first == second and first is not second

    def test_mutating_a_hit_never_corrupts_the_store(self):
        cache = ResultCache()
        key = "a" * 64
        cache.put(key, self._result())
        hit = cache.get(key)
        hit.replicas = 99  # what select_minimum_replica does to merged results
        assert cache.get(key).replicas == 1

    def test_put_snapshots_before_later_mutation(self):
        cache = ResultCache()
        key = "a" * 64
        result = self._result()
        cache.put(key, result)
        result.replicas = 99
        assert cache.get(key).replicas == 1

    def test_miss_returns_none_and_counts(self):
        cache = ResultCache()
        assert cache.get("f" * 64) is None
        assert cache.stats.misses == 1

    def test_disk_round_trip_and_promotion(self, tmp_path):
        key = "ab" + "c" * 62
        writer = ResultCache(tmp_path / "store")
        writer.put(key, self._result(runtime=7))
        # A different instance sharing the directory: memory-cold, disk-hot.
        reader = ResultCache(tmp_path / "store")
        hit = reader.get(key)
        assert hit is not None and hit.runtime_ns == 7
        assert reader.stats.disk_hits == 1
        reader.get(key)
        assert reader.stats.memory_hits == 1  # promoted on first disk hit

    def test_disk_layout_is_sharded(self, tmp_path):
        key = "ab" + "c" * 62
        cache = ResultCache(tmp_path / "store")
        cache.put(key, self._result())
        assert (tmp_path / "store" / "ab" / f"{key}.json").is_file()

    @pytest.mark.parametrize(
        "shard", [b"{not json", b"\xff\xfe garbage"], ids=["not-json", "not-utf8"]
    )
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, shard):
        key = "ab" + "c" * 62
        cache = ResultCache(tmp_path / "store")
        cache.put(key, self._result())
        cache.clear_memory()
        (tmp_path / "store" / "ab" / f"{key}.json").write_bytes(shard)
        assert cache.get(key) is None
        assert cache.stats.invalid_entries == 1

    def test_lru_eviction_bounds_memory(self):
        cache = ResultCache(memory_entries=2)
        keys = [ch * 64 for ch in "abc"]
        for key in keys:
            cache.put(key, self._result())
        assert len(cache) == 2
        assert cache.stats.memory_evictions == 1
        assert cache.get(keys[0]) is None  # evicted, no disk tier

    def test_zero_memory_entries_is_disk_only(self, tmp_path):
        cache = ResultCache(tmp_path / "store", memory_entries=0)
        key = "a" * 64
        cache.put(key, self._result())
        assert len(cache) == 0
        assert cache.get(key) is not None

    def test_negative_memory_entries_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(memory_entries=-1)


class TestDiskBudget:
    """LRU eviction of disk shards under a byte budget."""

    @staticmethod
    def _result():
        return RunResult(
            workload="oltp",
            protocol="ts-snoop",
            network="butterfly",
            runtime_ns=100,
            instructions=1,
            references=1,
            misses=1,
            cache_to_cache_misses=0,
            writebacks=0,
            nacks=0,
            retries=0,
            data_touched_mb=0.0,
            per_link_bytes=0.0,
            traffic_bytes_by_category={},
            average_miss_latency_ns=0.0,
        )

    def _shard_size(self, tmp_path):
        """One entry's on-disk size (all keys here encode to equal sizes)."""
        probe = ResultCache(tmp_path / "probe", disk_budget_bytes=1 << 30)
        probe.put("f" * 64, self._result())
        return probe.stats_dict()["disk_bytes"]

    def test_put_evicts_least_recently_used_shard(self, tmp_path):
        size = self._shard_size(tmp_path)
        cache = ResultCache(tmp_path / "store", disk_budget_bytes=2 * size + size // 2)
        keys = [ch * 64 for ch in "abcd"]
        for key in keys:
            cache.put(key, self._result())
        stats = cache.stats_dict()
        assert stats["disk_evictions"] == 2
        assert stats["disk_entries"] == 2
        assert stats["disk_bytes"] <= 2 * size + size // 2
        # The two oldest shards are gone from disk, the newest two remain.
        shards = sorted(p.stem for p in (tmp_path / "store").glob("??/*.json"))
        assert shards == sorted(keys[2:])

    def test_disk_read_refreshes_lru_position(self, tmp_path):
        size = self._shard_size(tmp_path)
        cache = ResultCache(tmp_path / "store", disk_budget_bytes=2 * size + size // 2)
        a, b, c = "a" * 64, "b" * 64, "c" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())
        cache.clear_memory()  # force the next get through the disk tier
        assert cache.get(a) is not None  # a becomes most-recently-used
        cache.put(c, self._result())
        cache.clear_memory()
        assert cache.get(b) is None  # b, not a, was the LRU victim
        assert cache.get(a) is not None
        assert cache.get(c) is not None

    def test_memory_hit_refreshes_disk_lru_position(self, tmp_path):
        """A hit served from memory must not leave its disk shard cold."""
        size = self._shard_size(tmp_path)
        cache = ResultCache(tmp_path / "store", disk_budget_bytes=2 * size + size // 2)
        a, b, c = "a" * 64, "b" * 64, "c" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())
        assert cache.get(a) is not None  # memory hit -- a is the hot entry
        cache.put(c, self._result())
        cache.clear_memory()
        assert cache.get(b) is None  # b, not the hot a, was the LRU victim
        assert cache.get(a) is not None
        assert cache.get(c) is not None

    def test_read_recency_survives_stop_and_reopen(self, tmp_path):
        """Restart-time LRU order reflects *reads*, not just writes.

        A reopened cache rebuilds its eviction order from shard mtimes,
        so every hit must leave a timestamp on disk: here ``a`` is written
        first (the oldest write) but read last, and after a reopen under a
        one-entry budget the never-read ``b`` -- not ``a`` -- is evicted.
        """
        size = self._shard_size(tmp_path)
        store = tmp_path / "store"
        cache = ResultCache(store, memory_entries=0)
        a, b = "a" * 64, "b" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())
        # Push both shards into the past (distinct mtimes, a older than
        # b), as if the service had been running for a while.
        for key, age in ((a, 2000), (b, 1000)):
            shard = store / key[:2] / f"{key}.json"
            stamp = shard.stat().st_mtime - age
            os.utime(shard, (stamp, stamp))
        assert cache.get(a) is not None  # disk hit: a is now the hot entry

        reopened = ResultCache(
            store, memory_entries=0, disk_budget_bytes=size + size // 2
        )
        assert reopened.stats_dict()["disk_entries"] == 1
        assert reopened.get(b) is None  # cold b was the reopen victim
        assert reopened.get(a) is not None

    def test_memory_hit_recency_survives_stop_and_reopen(self, tmp_path):
        """The restart regression again, with the read served from memory."""
        size = self._shard_size(tmp_path)
        store = tmp_path / "store"
        cache = ResultCache(store)
        a, b = "a" * 64, "b" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())
        for key, age in ((a, 2000), (b, 1000)):
            shard = store / key[:2] / f"{key}.json"
            stamp = shard.stat().st_mtime - age
            os.utime(shard, (stamp, stamp))
        assert cache.get(a) is not None  # memory hit
        assert cache.stats.memory_hits == 1

        reopened = ResultCache(
            store, memory_entries=0, disk_budget_bytes=size + size // 2
        )
        assert reopened.get(b) is None
        assert reopened.get(a) is not None

    def test_just_written_shard_is_never_the_victim(self, tmp_path):
        size = self._shard_size(tmp_path)
        cache = ResultCache(tmp_path / "store", disk_budget_bytes=size)
        a, b = "a" * 64, "b" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())  # over budget: a is evicted, not b
        cache.clear_memory()
        assert cache.get(a) is None
        assert cache.get(b) is not None
        assert cache.stats.disk_evictions == 1

    def test_reopening_over_budget_directory_evicts_oldest(self, tmp_path):
        import time

        size = self._shard_size(tmp_path)
        writer = ResultCache(tmp_path / "store")  # unbudgeted: no eviction
        keys = [ch * 64 for ch in "abc"]
        for key in keys:
            writer.put(key, self._result())
            time.sleep(0.01)  # order the shard mtimes deterministically
        reopened = ResultCache(
            tmp_path / "store", disk_budget_bytes=2 * size + size // 2
        )
        stats = reopened.stats_dict()
        assert stats["disk_evictions"] == 1
        assert stats["disk_entries"] == 2
        assert reopened.get(keys[0]) is None  # oldest shard was the victim
        assert reopened.get(keys[1]) is not None
        assert reopened.get(keys[2]) is not None

    def test_evicted_key_is_a_miss_then_restorable(self, tmp_path):
        size = self._shard_size(tmp_path)
        cache = ResultCache(
            tmp_path / "store", memory_entries=0, disk_budget_bytes=size
        )
        a, b = "a" * 64, "b" * 64
        cache.put(a, self._result())
        cache.put(b, self._result())
        assert cache.get(a) is None
        cache.put(a, self._result())  # recomputed entries re-enter cleanly
        assert cache.get(a) is not None
        assert cache.stats_dict()["disk_entries"] == 1

    def test_unbudgeted_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        for ch in "abcdef":
            cache.put(ch * 64, self._result())
        assert cache.stats.disk_evictions == 0
        assert len(list((tmp_path / "store").glob("??/*.json"))) == 6


class TestDegradedMode:
    def _result(self, runtime=100):
        return RunResult(
            workload="oltp",
            protocol="ts-snoop",
            network="butterfly",
            runtime_ns=runtime,
            instructions=1,
            references=1,
            misses=1,
            cache_to_cache_misses=0,
            writebacks=0,
            nacks=0,
            retries=0,
            data_touched_mb=0.0,
            per_link_bytes=0.0,
            traffic_bytes_by_category={},
            average_miss_latency_ns=0.0,
        )

    def test_disk_put_fault_degrades_to_memory_only(self, tmp_path, monkeypatch):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_PUT, 1, "io-error")])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")
        key, other = "a" * 64, "b" * 64
        cache.put(key, self._result(runtime=7))
        assert cache.degraded
        assert "ENOSPC" in cache.degraded_reason
        assert cache.stats.disk_put_errors == 1
        # The entry is still served from memory; nothing reached the disk.
        assert cache.get(key).runtime_ns == 7
        assert not any((tmp_path / "store").rglob("*.json"))
        # Later puts skip the disk entirely (only one disk_put was fired).
        cache.put(other, self._result())
        assert plan.invocations(SITE_CACHE_DISK_PUT) == 1
        assert cache.stats.disk_put_errors == 1

    def test_disk_get_fault_degrades_and_counts(self, tmp_path, monkeypatch):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_GET, 1, "io-error", "EACCES")])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")
        key = "a" * 64
        cache.put(key, self._result())
        cache.clear_memory()
        assert cache.get(key) is None
        assert cache.degraded
        assert "EACCES" in cache.degraded_reason
        assert cache.stats.disk_get_errors == 1
        assert cache.stats.misses == 1
        # Degraded mode never touches the disk again.
        assert cache.get(key) is None
        assert plan.invocations(SITE_CACHE_DISK_GET) == 1

    def test_disk_get_fault_leaves_memory_hits_serving(self, tmp_path, monkeypatch):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_GET, 1, "io-error")])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")
        key, cold = "a" * 64, "b" * 64
        cache.put(key, self._result(runtime=7))
        assert cache.get(cold) is None  # the disk read faults and degrades
        assert cache.degraded
        # The memory tier answers without another disk read.
        assert cache.get(key).runtime_ns == 7
        assert plan.invocations(SITE_CACHE_DISK_GET) == 1

    def test_corrupt_shard_degrades_but_memory_keeps_serving(self, tmp_path):
        key = "ab" + "c" * 62
        cache = ResultCache(tmp_path / "store")
        cache.put(key, self._result())
        cache.clear_memory()
        shard = tmp_path / "store" / "ab" / f"{key}.json"
        shard.write_text('{"kind": "wrong"}')
        assert cache.get(key) is None
        assert cache.degraded
        assert "corrupt cache shard" in cache.degraded_reason
        assert cache.stats.invalid_entries == 1
        # The memory tier still works for new entries.
        cache.put("d" * 64, self._result(runtime=9))
        assert cache.get("d" * 64).runtime_ns == 9

    def test_degradation_latches_the_first_reason(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            [
                Fault(SITE_CACHE_DISK_PUT, 1, "io-error", "ENOSPC"),
                Fault(SITE_CACHE_DISK_PUT, 2, "io-error", "EACCES"),
            ]
        )
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")
        cache.put("a" * 64, self._result())
        first_reason = cache.degraded_reason
        cache.put("b" * 64, self._result())
        assert cache.degraded_reason == first_reason
        assert "ENOSPC" in first_reason

    def test_memory_only_cache_never_degrades(self, monkeypatch):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_PUT, 1, "io-error")])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache()
        cache.put("a" * 64, self._result())
        assert not cache.degraded
        assert plan.invocations(SITE_CACHE_DISK_PUT) == 0
