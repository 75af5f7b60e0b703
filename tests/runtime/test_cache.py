"""Tests for the content-addressed result cache."""

import json
import multiprocessing
import os
import time

import pytest

from repro.experiments.persistence import trajectory_digest
from repro.experiments.scenarios import get_scenario
from repro.runtime.cache import (
    CHECKSUM_FIELD,
    QUARANTINE_DIRNAME,
    ResultCache,
    _document_checksum,
)
from repro.runtime.campaign import Campaign
from repro.runtime.executor import Executor
from repro.runtime.task import ExperimentTask


class ExplodingExecutor(Executor):
    """Fails the test if any task reaches the executor (cache must serve)."""

    def open_session(self):
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
        path = cache.put(task, result)
        assert path == tmp_path / "cache" / f"{task.key()}.json"
        restored = cache.get(task)
        assert restored is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.bytes_served == path.stat().st_size

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

    def test_clear_removes_every_entry(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        assert cache.info().entries == 1
        assert cache.info().total_bytes > 0
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
        assert cache.stats.bytes_served == 0
        assert cache.info().corrupt_entries == 1
        assert ResultCache(tmp_path / "cache").info().corrupt_entries == 1

    def test_fingerprint_mismatch_is_a_miss(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["task"]["seed"] = document["task"]["seed"] + 1
        # Re-sealed, so only the fingerprint comparison can reject it.
        document.pop(CHECKSUM_FIELD)
        document[CHECKSUM_FIELD] = _document_checksum(document)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.verify(repair=False).clean
        assert cache.get(task) is None
        assert cache.stats.corrupt_entries == 1

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

    def test_entry_without_checksum_is_quarantined_miss(
        self, task, result, tmp_path
    ):
        """Nothing vouches for checksum-less bytes: they are recomputed."""
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        document = json.loads(path.read_text(encoding="utf-8"))
        document.pop(CHECKSUM_FIELD)
        path.write_text(json.dumps(document), encoding="utf-8")
        assert cache.get(task) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()
        assert (tmp_path / "cache" / QUARANTINE_DIRNAME / path.name).exists()
        cache.put(task, result)  # the campaign re-runs and overwrites
        assert cache.get(task) is not None

    # Every placement the sharded layout wrote an entry to: ``key[:d]/``
    # for depths 1..8.
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_entry_in_a_shard_subdirectory_is_ignored(
        self, task, result, tmp_path, depth
    ):
        """Entries live flat: ``key[:d]/key.json`` is neither served nor counted."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        flat = cache.put(task, result)
        sharded = directory / task.key()[:depth] / flat.name
        sharded.parent.mkdir()
        flat.replace(sharded)
        assert cache.get(task) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.corrupt_entries == 0
        info = cache.info()
        assert (info.entries, info.total_bytes) == (0, 0)
        assert cache.prune(max_bytes=0) == 0
        assert cache.verify().checked == 0
        assert cache.clear() == 0
        assert sharded.exists()

    def test_corrupt_entry_in_a_shard_subdirectory_is_left_alone(
        self, task, result, tmp_path
    ):
        """A sharded entry is never read, so it is never quarantined either."""
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        sharded = directory / task.key()[:2] / f"{task.key()}.json"
        sharded.parent.mkdir(parents=True)
        sharded.write_text("{torn", encoding="utf-8")
        assert cache.get(task) is None
        assert cache.verify().corrupt == 0
        assert cache.stats.corrupt_entries == 0
        assert sharded.read_text(encoding="utf-8") == "{torn"
        assert not (directory / QUARANTINE_DIRNAME).exists()

    def test_new_entry_bytes(self, task, result, tmp_path):
        """A stored entry is ``json.dumps`` of key, task, result, checksum."""
        path = ResultCache(tmp_path / "cache").put(task, result)
        raw = path.read_bytes()
        document = json.loads(raw)
        assert list(document) == ["key", "task", "result", CHECKSUM_FIELD]
        assert document["key"] == task.key()
        assert document["task"] == task.fingerprint()
        sealed = {name: document[name] for name in ("key", "task", "result")}
        assert document[CHECKSUM_FIELD] == _document_checksum(sealed)
        assert raw == json.dumps(document).encode("utf-8")

    def test_synced_counters_persist_once(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(task) is None
        path = cache.put(task, result)
        assert cache.get(task) is not None
        cache.sync_persistent_stats()
        cache.sync_persistent_stats()  # only the delta is flushed: a no-op
        info = ResultCache(tmp_path / "cache").info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.bytes_served == path.stat().st_size
        meta = json.loads((tmp_path / "cache" / "_meta.json").read_text())
        assert meta["stores"] == 1

    def test_sync_leaves_an_unused_directory_absent(self, task, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.get(task) is None
        cache.sync_persistent_stats()
        assert not (tmp_path / "never-created").exists()

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


class TestPruneEviction:
    def test_prune_evicts_down_to_cap(self, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        paths = [cache.put(t, result) for t in distinct_tasks(4)]
        entry_bytes = max(path.stat().st_size for path in paths)
        # A store never evicts: the cap applies only when prune asks.
        assert cache.info().entries == 4
        assert cache.stats.evictions == 0
        assert cache.prune(max_bytes=2 * entry_bytes) == 2
        info = cache.info()
        assert info.entries == 2
        assert info.total_bytes <= 2 * entry_bytes
        assert cache.stats.evictions == 2
        assert info.evictions == cache.stats.evictions

    def test_lru_order_keeps_recently_used_entries(self, result, tmp_path):
        """A hit refreshes recency, so prune evicts the colder entry."""
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
        assert [path.exists() for path in paths] == [True, False, True]
        assert cache.get(tasks[0]) is not None  # the touched entry survived

    #: Caps against three entries of sizes s0, s1, s2 (oldest first),
    #: with which entries each leaves in place.
    CAPS = {
        "fits": (lambda s: sum(s), [True, True, True]),
        "one-byte-over": (lambda s: sum(s) - 1, [False, True, True]),
        "newest-only": (lambda s: s[2], [False, False, True]),
        "below-newest": (lambda s: s[2] - 1, [False, False, False]),
    }

    @pytest.mark.parametrize("cap", sorted(CAPS))
    def test_prune_stops_once_the_cache_fits(self, result, tmp_path, cap):
        cache = ResultCache(tmp_path / "cache")
        paths = [cache.put(t, result) for t in distinct_tasks(3)]
        for age, path in enumerate(paths):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        sizes = [path.stat().st_size for path in paths]
        max_bytes, kept = self.CAPS[cap]
        assert cache.prune(max_bytes=max_bytes(sizes)) == kept.count(False)
        assert [path.exists() for path in paths] == kept
        assert cache.info().total_bytes <= max_bytes(sizes)

    def test_equal_recency_evicts_in_name_order(self, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        paths = [cache.put(t, result) for t in distinct_tasks(3)]
        for path in paths:
            os.utime(path, (1_000_000, 1_000_000))
        total = sum(path.stat().st_size for path in paths)
        assert cache.prune(max_bytes=total - 1) == 1
        first = min(paths, key=lambda path: path.name)
        assert [path.exists() for path in paths] == [
            path != first for path in paths
        ]

    def test_prune_cap_is_required_and_non_negative(self, task, result, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put(task, result)
        with pytest.raises(TypeError):
            cache.prune()
        with pytest.raises(ValueError):
            cache.prune(max_bytes=-1)
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

def _without(document, name):
    document.pop(name)
    return json.dumps(document)


def _tampered(document):
    document["result"]["wall_seconds"] += 1.0
    return json.dumps(document)


#: Ways to damage a written entry's document; each must fail the one check.
DAMAGES = {
    "not-json": lambda document: "{torn",
    "not-an-object": lambda document: json.dumps([document]),
    "no-task": lambda document: _without(document, "task"),
    "no-result": lambda document: _without(document, "result"),
    "no-checksum": lambda document: _without(document, CHECKSUM_FIELD),
    "checksum-mismatch": _tampered,
}


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
            assert cache.get(t) is not None

    def test_verify_no_repair_reports_without_moving(
        self, task, result, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        bad_path = cache.put(task, result)
        bad_path.write_text("{truncated", encoding="utf-8")
        report = cache.verify(repair=False)
        assert report.corrupt == 1 and report.quarantined == []
        assert bad_path.exists()  # left in place for inspection

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_get_and_verify_reject_the_same_entries(
        self, task, result, tmp_path, damage
    ):
        cache = ResultCache(tmp_path / "cache")
        path = cache.put(task, result)
        path.write_text(
            DAMAGES[damage](json.loads(path.read_text(encoding="utf-8"))),
            encoding="utf-8",
        )
        report = cache.verify(repair=False)
        assert (report.checked, report.ok, report.corrupt) == (1, 0, 1)
        assert cache.get(task) is None
        assert cache.stats.corrupt_entries == 1
        assert not path.exists()
        assert (tmp_path / "cache" / QUARANTINE_DIRNAME / path.name).exists()

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

    @pytest.mark.parametrize(
        "name", ["deadbeef.1234.tmp", "_meta.5678.metatmp"]
    )
    def test_clear_sweeps_tmp_files_of_any_age(self, task, result, tmp_path, name):
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        cache.put(task, result)
        fresh = directory / name
        fresh.write_text("debris", encoding="utf-8")
        assert cache.clear() == 1  # temp files are not counted as entries
        assert not fresh.exists()

    @pytest.mark.parametrize("name", ["_costs.json", "_costs.9012.coststmp"])
    def test_leftover_costs_files_are_neither_entries_nor_swept(
        self, task, result, tmp_path, name
    ):
        # Older versions kept a task cost sidecar here. Nothing reads or
        # writes it any more; the cache leaves it alone, as it does any
        # file it does not own, and never counts it as an entry.
        directory = tmp_path / "cache"
        ResultCache(directory).put(task, result)
        leftover = directory / name
        leftover.write_text("{}", encoding="utf-8")
        old = time.time() - 7200
        os.utime(leftover, (old, old))
        cache = ResultCache(directory)  # open triggers the sweep
        assert leftover.exists()
        assert cache.info().entries == 1
        assert cache.clear() == 1
        assert leftover.exists()

    def test_sweep_leaves_shard_subdirectories_alone(self, tmp_path):
        directory = tmp_path / "cache"
        stale = directory / "de" / "deadbeef.1234.tmp"
        stale.parent.mkdir(parents=True)
        stale.write_text("debris", encoding="utf-8")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        cache = ResultCache(directory)  # open triggers the sweep
        cache.clear()
        assert stale.exists()

    def test_open_without_directory_is_fine(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.info().entries == 0
        assert not (tmp_path / "never-created").exists()


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
