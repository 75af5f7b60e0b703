"""Tests for the content-addressed result cache."""

import json
import logging
import multiprocessing
import os
import time

import pytest

from repro.experiments.persistence import trajectory_digest
from repro.experiments.scenarios import get_scenario
from repro.runtime.cache import CHECKSUM_FIELD, QUARANTINE_DIRNAME, ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.executor import Executor
from repro.runtime.task import ExperimentTask


class ExplodingExecutor(Executor):
    """Fails the test if any task reaches the executor (cache must serve)."""

    def open_task_session(self):
        raise AssertionError("a task was not served from the cache")


@pytest.fixture(scope="module")
def task():
    return ExperimentTask.create(
        scenario=get_scenario("E").with_overrides(bucket_size=5),
        profile="tiny",
        seed=9,
        keep_snapshots=True,
    )


@pytest.fixture(scope="module")
def result(task):
    return task.run()


class TestResultCache:
    def test_miss_then_hit(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(task) is None
        cache.put(task, result)
        assert cache.contains(task)
        restored = cache.get(task)
        assert restored is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_snapshots_hold_each_node_id_once(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        restored = cache.get(task)
        assert restored.snapshots
        assert [s.routing_tables for s in restored.snapshots] == [
            s.routing_tables for s in result.snapshots
        ]
        named = []
        for snapshot in restored.snapshots:
            keys = {node: node for node in snapshot.routing_tables}
            for contacts in snapshot.routing_tables.values():
                named += [(contact, keys[contact]) for contact in contacts if contact in keys]
        assert named and all(contact is key for contact, key in named)
        assert trajectory_digest(restored) == trajectory_digest(result)

    def test_cached_result_is_faithful(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        restored = cache.get(task)
        assert restored.series.minimum_series() == result.series.minimum_series()
        assert restored.series.average_series() == result.series.average_series()
        assert restored.series.times() == result.series.times()
        assert restored.transport_stats == result.transport_stats
        assert restored.wall_seconds == result.wall_seconds
        assert restored.scenario == result.scenario
        assert restored.joins == result.joins
        assert restored.leaves == result.leaves
        assert len(restored.snapshots) == len(result.snapshots)
        assert restored.snapshots[-1].routing_tables == \
            result.snapshots[-1].routing_tables

    def test_hit_skips_all_simulation_work(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        campaign = Campaign(executor=ExplodingExecutor(), cache=cache)
        restored = campaign.run_one(task)
        assert restored.series.minimum_series() == result.series.minimum_series()
        assert cache.stats.hit_rate == 1.0

    def test_evict_and_clear(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        assert cache.info().entries == 1
        assert cache.info().total_bytes > 0
        assert cache.evict(task)
        assert not cache.evict(task)
        cache.put(task, result)
        assert cache.clear() == 1
        assert cache.info().entries == 0

    def test_corrupt_entry_is_quarantined_miss(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(task) is None
        assert not path.exists()
        # The corrupt bytes were moved aside, not destroyed, and counted.
        quarantined = tmp_path / "cache" / QUARANTINE_DIRNAME / path.name
        assert quarantined.read_text(encoding="utf-8") == "{not json"
        assert cache.stats.corrupt_entries == 1
        assert cache.info().corrupt_entries == 1
        assert ResultCache(tmp_path / "cache").info().corrupt_entries == 1

    def test_non_object_json_entry_is_a_miss(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        path.write_text("[]", encoding="utf-8")
        assert cache.get(task) is None
        assert not path.exists()

    def test_fingerprint_mismatch_is_a_miss(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["task"]["seed"] = document["task"]["seed"] + 1
        document.pop(CHECKSUM_FIELD, None)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get(task) is None

    def test_checksum_mismatch_is_quarantined_miss(
        self, task, result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        # Flip one payload byte without touching the JSON structure: the
        # document still parses and still matches the fingerprint, so only
        # the checksum can catch it.
        document = json.loads(path.read_text(encoding="utf-8"))
        document["result"]["wall_seconds"] = (
            document["result"]["wall_seconds"] + 1.0
        )
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get(task) is None
        assert cache.stats.corrupt_entries == 1
        assert (tmp_path / "cache" / QUARANTINE_DIRNAME / path.name).exists()

    def test_quarantined_entry_is_recomputed_and_overwritten(
        self, task, result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        path.write_text("garbage", encoding="utf-8")
        assert cache.get(task) is None  # quarantined
        cache.put(task, result)  # the campaign re-runs and overwrites
        assert cache.get(task) is not None

    def test_legacy_entry_without_checksum_still_hits(
        self, task, result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop(CHECKSUM_FIELD)
        path.write_text(json.dumps(document), encoding="utf-8")
        restored = cache.get(task)
        assert restored is not None
        assert cache.stats.corrupt_entries == 0

    def test_cache_survives_reopening(self, task, result, tmp_path):
        ResultCache(tmp_path / "cache").put(task, result)
        reopened = ResultCache(tmp_path / "cache")
        restored = reopened.get(task)
        assert restored is not None
        assert restored.series.minimum_series() == result.series.minimum_series()


def distinct_tasks(count):
    """Tasks with distinct content hashes (bucket size varies)."""
    return [
        ExperimentTask.create(
            scenario=get_scenario("E").with_overrides(bucket_size=4 + k),
            profile="tiny",
            seed=9,
        )
        for k in range(count)
    ]


class TestSizeCapEviction:
    def test_put_evicts_down_to_cap(self, task, result, tmp_path):
        probe = ResultCache(tmp_path / "probe")
        entry_bytes = probe.put(task, result).stat().st_size
        tasks = distinct_tasks(4)
        cache = ResultCache(tmp_path / "cache", max_bytes=2 * entry_bytes)
        for t in tasks:
            cache.put(t, result)
        info = cache.info()
        assert info.entries <= 2
        assert info.total_bytes <= 2 * entry_bytes
        assert cache.stats.evictions >= 2
        assert info.evictions == cache.stats.evictions

    def test_lru_order_keeps_recently_used_entries(self, result, tmp_path):
        import os

        tasks = distinct_tasks(3)
        cache = ResultCache(tmp_path / "cache")
        paths = [cache.put(t, result) for t in tasks]
        # Make recency explicit (mtime granularity): oldest first, but the
        # first entry is then touched by a hit, leaving tasks[1] as LRU.
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        assert cache.get(tasks[0]) is not None
        entry_bytes = paths[0].stat().st_size
        evicted = cache.prune(max_bytes=2 * entry_bytes)
        assert evicted == 1
        assert cache.contains(tasks[0])
        assert not cache.contains(tasks[1])
        assert cache.contains(tasks[2])

    def test_prune_without_cap_is_noop(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        assert cache.prune() == 0
        assert cache.info().entries == 1

    def test_prune_to_zero_empties_cache(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        assert cache.prune(max_bytes=0) == 1
        assert cache.info().entries == 0

    def test_eviction_counter_persists_across_instances(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        cache.prune(max_bytes=0)
        reopened = ResultCache(tmp_path / "cache")
        assert reopened.info().evictions == 1

    def test_meta_sidecar_not_counted_as_entry(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        cache.prune(max_bytes=0)
        assert (cache.directory / "_meta.json").exists()
        assert cache.info().entries == 0
        # clear() must also leave the sidecar alone but remove entries.
        cache.put(task, result)
        assert cache.clear() == 1

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path / "cache", max_bytes=-1)


class TestTouchSemantics:
    def test_prescanned_hits_survive_eviction(self, result, tmp_path):
        """contains() refreshes recency exactly like get().

        A campaign pre-scan answers "is this cached?" with contains() and
        reads the entry later; if the probe did not count as a use, a
        size-cap prune between scan and read could evict the very entry
        the scan just promised, ahead of colder ones.
        """
        import os

        tasks = distinct_tasks(3)
        cache = ResultCache(tmp_path / "cache")
        paths = [cache.put(t, result) for t in tasks]
        # Make recency explicit (mtime granularity): tasks[0] is the
        # coldest on disk, then promoted by the pre-scan probe, leaving
        # tasks[1] as the true LRU entry.
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        assert cache.contains(tasks[0])
        entry_bytes = paths[0].stat().st_size
        assert cache.prune(max_bytes=2 * entry_bytes) == 1
        assert cache.get(tasks[0]) is not None  # the promised entry survived
        assert not cache.contains(tasks[1])     # the colder entry went
        assert cache.contains(tasks[2])

    def test_contains_still_false_for_missing_entry(self, task, tmp_path):
        assert not ResultCache(tmp_path / "cache").contains(task)


class TestOversizedStores:
    def test_oversized_put_is_surfaced_and_drops_only_itself(
        self, task, result, tmp_path, caplog
    ):
        """A store larger than the cap warns and never displaces entries.

        Historically the oversized entry went through the LRU prune as
        the newest file, which first evicted every *older* entry and then
        the new one — one oversized store silently emptied the cache and
        still looked like a success.
        """
        import dataclasses

        small_result = dataclasses.replace(result, snapshots=[])
        small_tasks = distinct_tasks(2)
        probe = ResultCache(tmp_path / "probe")
        small_bytes = probe.put(small_tasks[0], small_result).stat().st_size
        big_bytes = probe.put(task, result).stat().st_size

        cap = 2 * small_bytes + 2
        assert big_bytes > cap, "snapshot-bearing entry must exceed the cap"
        cache = ResultCache(tmp_path / "cache", max_bytes=cap)
        for t in small_tasks:
            cache.put(t, small_result)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            dropped_path = cache.put(task, result)
        assert any(
            "larger than the cache cap" in record.message
            for record in caplog.records
        )
        assert not dropped_path.exists()
        assert cache.stats.stores_dropped == 1
        assert cache.stats.stores == 2  # the dropped store is not a store
        assert cache.stats.evictions == 0
        # The pre-existing entries are untouched and the counter persists.
        for t in small_tasks:
            assert cache.contains(t)
        assert cache.info().stores_dropped == 1
        assert ResultCache(tmp_path / "cache").info().stores_dropped == 1

    def test_first_store_into_tiny_cap_is_dropped_with_warning(
        self, task, result, tmp_path, caplog
    ):
        cache = ResultCache(tmp_path / "cache", max_bytes=64)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
            cache.put(task, result)
        assert any(
            "the store was dropped" in record.message
            for record in caplog.records
        )
        assert cache.info().entries == 0
        assert cache.stats.stores_dropped == 1
        assert cache.get(task) is None  # and a later lookup is an honest miss


class TestVerify:
    def test_clean_cache_verifies_ok(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        report = cache.verify()
        assert report.clean
        assert (report.checked, report.ok, report.corrupt) == (1, 1, 0)
        assert report.quarantined == []

    def test_verify_quarantines_corrupt_entries(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        good_tasks = distinct_tasks(2)
        for t in good_tasks:
            cache.put(t, result)
        bad_path = cache.put(task, result)
        bad_path.write_text("{truncated", encoding="utf-8")
        report = cache.verify()
        assert not report.clean
        assert (report.checked, report.ok, report.corrupt) == (3, 2, 1)
        assert report.quarantined == [bad_path.name]
        assert not bad_path.exists()
        assert (tmp_path / "cache" / QUARANTINE_DIRNAME / bad_path.name).exists()
        # The good entries are untouched and a re-scan is clean.
        assert cache.verify().clean
        for t in good_tasks:
            assert cache.contains(t)

    def test_verify_no_repair_reports_without_moving(
        self, task, result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        bad_path = cache.put(task, result)
        bad_path.write_text("{truncated", encoding="utf-8")
        report = cache.verify(repair=False)
        assert report.corrupt == 1 and report.quarantined == []
        assert bad_path.exists()  # left in place for inspection

    def test_verify_flags_legacy_entries(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop(CHECKSUM_FIELD)
        path.write_text(json.dumps(document), encoding="utf-8")
        report = cache.verify()
        assert report.clean
        assert report.legacy == 1 and report.ok == 0

    def test_clear_removes_quarantine(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        path.write_text("bad", encoding="utf-8")
        assert cache.get(task) is None
        assert (tmp_path / "cache" / QUARANTINE_DIRNAME).is_dir()
        cache.clear()
        assert not (tmp_path / "cache" / QUARANTINE_DIRNAME).exists()


class TestStaleTmpSweep:
    def test_open_sweeps_aged_tmp_files(self, task, result, tmp_path):
        directory = tmp_path / "cache"
        ResultCache(directory).put(task, result)
        stale = [
            directory / "deadbeef.1234.tmp",
            directory / "_meta.5678.metatmp",
            directory / "_costs.9012.coststmp",
        ]
        old = time.time() - 7200
        for path in stale:
            path.write_text("debris", encoding="utf-8")
            os.utime(path, (old, old))
        fresh = directory / "cafef00d.4321.tmp"
        fresh.write_text("live writer", encoding="utf-8")

        cache = ResultCache(directory)  # open triggers the sweep
        for path in stale:
            assert not path.exists()
        assert fresh.exists()  # age-gated: a live writer's file survives
        assert cache.info().entries == 1  # entries never swept

    def test_open_without_directory_is_fine(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.info().entries == 0
        assert not (tmp_path / "never-created").exists()


# ----------------------------------------------------------------------
# Sharded layout (placement knob)
# ----------------------------------------------------------------------
class TestSharding:
    def test_shard_depth_validation(self, tmp_path):
        for bogus in (-1, 9):
            with pytest.raises(ValueError):
                ResultCache(tmp_path / "cache", shard_depth=bogus)

    def test_sharded_writes_and_flat_fallback_reads(
        self, task, result, tmp_path
    ):
        directory = tmp_path / "cache"
        flat_path = ResultCache(directory).put(task, result)
        assert flat_path.parent == directory

        # A sharded instance still serves the pre-sharding flat entry...
        sharded = ResultCache(directory, shard_depth=2)
        assert sharded.get(task) is not None

        # ...and writes new entries under the fingerprint-prefix subdir.
        sharded.evict(task)
        assert not flat_path.exists()
        shard_path = sharded.put(task, result)
        assert shard_path.parent == directory / task.key()[:2]
        assert sharded.get(task) is not None

        # A flat instance reads the sharded entry via the fallback too.
        assert ResultCache(directory).get(task) is not None

    def test_maintenance_sees_every_depth(self, task, result, tmp_path):
        directory = tmp_path / "cache"
        tasks = distinct_tasks(2)
        ResultCache(directory).put(tasks[0], result)
        ResultCache(directory, shard_depth=1).put(tasks[1], result)
        cache = ResultCache(directory)
        assert cache.info().entries == 2
        report = cache.verify()
        assert report.clean and report.checked == 2
        assert cache.clear() == 2
        assert ResultCache(directory).info().entries == 0


# ----------------------------------------------------------------------
# Cross-depth reads: ``get`` verifies an entry wherever it was placed
# ----------------------------------------------------------------------
DEPTH_PAIRS = [
    (write, read)
    for write in (0, 1, 2)
    for read in (0, 1, 2)
    if write != read
]


class TestCrossDepthReads:
    @pytest.mark.parametrize(
        "write_depth, read_depth", DEPTH_PAIRS,
        ids=[f"write{w}-read{r}" for w, r in DEPTH_PAIRS],
    )
    def test_entry_hits_from_another_depth(
        self, task, result, tmp_path, write_depth, read_depth
    ):
        directory = tmp_path / "cache"
        path = ResultCache(directory, shard_depth=write_depth).put(task, result)
        reader = ResultCache(directory, shard_depth=read_depth)
        restored = reader.get(task)
        assert restored is not None
        assert restored.series.minimum_series() == result.series.minimum_series()
        assert reader.stats.hits == 1
        assert reader.stats.bytes_served == path.stat().st_size
        # A read never moves the entry to the reader's own layout.
        assert path.exists() and reader.info().entries == 1

    @pytest.mark.parametrize("write_depth", [0, 1, 2])
    def test_corrupt_entry_is_never_served_from_another_depth(
        self, task, result, tmp_path, write_depth
    ):
        directory = tmp_path / "cache"
        path = ResultCache(directory, shard_depth=write_depth).put(task, result)
        path.write_text("{torn", encoding="utf-8")
        reader = ResultCache(directory, shard_depth=(write_depth + 1) % 3)
        assert reader.get(task) is None
        assert not path.exists()
        assert (directory / QUARANTINE_DIRNAME / path.name).exists()
        assert reader.stats.corrupt_entries == 1
        assert reader.stats.bytes_served == 0

    @pytest.mark.parametrize("write_depth", [0, 1, 2])
    def test_legacy_entry_hits_from_another_depth(
        self, task, result, tmp_path, write_depth
    ):
        directory = tmp_path / "cache"
        path = ResultCache(directory, shard_depth=write_depth).put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop(CHECKSUM_FIELD)
        path.write_text(json.dumps(document), encoding="utf-8")
        reader = ResultCache(directory, shard_depth=(write_depth + 1) % 3)
        assert reader.get(task) is not None
        assert reader.stats.corrupt_entries == 0
        assert path.exists()


# ----------------------------------------------------------------------
# Concurrent writers (lock-free shared directories)
# ----------------------------------------------------------------------
def _racing_put(directory, task, result, barrier):
    cache = ResultCache(directory)
    barrier.wait()  # maximise overlap: both processes rename together
    cache.put(task, result)
    cache.sync_persistent_stats()


class TestConcurrentWriters:
    def test_simultaneous_puts_of_one_fingerprint(
        self, task, result, tmp_path
    ):
        directory = tmp_path / "cache"
        context = multiprocessing.get_context()
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_racing_put, args=(directory, task, result, barrier)
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]

        # Atomic rename means the survivor is one intact entry — never a
        # torn interleaving — with no temp debris left behind.
        cache = ResultCache(directory)
        assert cache.verify().clean
        assert cache.info().entries == 1
        assert not list(directory.glob("*.tmp"))
        restored = cache.get(task)
        assert restored is not None
        assert restored.series.minimum_series() == result.series.minimum_series()
        assert cache.info().corrupt_entries == 0
