"""Content-addressed on-disk cache of experiment results.

Every entry is one JSON document named after the task's content hash
(:meth:`repro.runtime.task.ExperimentTask.key`) and contains both the task
fingerprint and the result serialised through
:mod:`repro.experiments.persistence`.  Storing the fingerprint alongside the
result lets :meth:`ResultCache.get` verify that an entry really belongs to
the requesting task (guarding against fingerprint-format drift) and lets
``cache info`` describe what is in the cache without re-deriving anything.

The cache can be size-capped (``max_bytes``): after every store the
least-recently-used entries are evicted until the directory fits the cap
again.  Recency is tracked through file modification times — a hit
(``get``) *and* a positive existence probe (``contains``) touch the
entry — so the policy survives process restarts without any index file.
Cumulative eviction / dropped-store counters are persisted in a
``_meta.json`` sidecar (never counted as an entry) and surfaced by
``cache info``.  The campaign scheduler's cost model lives in a sibling
``_costs.json`` sidecar (see :mod:`repro.runtime.costmodel`), equally
outside the entry namespace.

Integrity tier: every entry written by :meth:`ResultCache.put` carries a
``checksum`` field — SHA-256 over the canonical serialisation of the
rest of the document — verified by :meth:`ResultCache.get`.  An entry
that fails the checksum, fails to parse, or mismatches the requesting
fingerprint is **quarantined** (moved into a ``quarantine/``
subdirectory, counted in the persistent ``corrupt_entries`` stat) and
treated as a miss: the campaign recomputes and overwrites instead of
crashing, and the corrupt bytes stay available for post-mortems.
``repro cache verify`` scans a whole directory through
:meth:`ResultCache.verify`.  Entries predating the checksum field are
accepted as legacy (structure-checked only).

Layout: ``shard_depth`` spreads entries over ``key[:depth]/``
subdirectories so a directory holding many entries does not collapse
into one giant flat dir; reads fall back to the other layouts, so
enabling sharding on an existing directory is safe.  Concurrent writers
need no lock in either layout: the key is a content hash (two writers of
one key write identical bytes) and the atomic tmp-file + ``rename``
publish means readers see either nothing or a complete entry.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.digest import sha256
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.runner import ExperimentResult
from repro.runtime import faults
from repro.runtime.task import ExperimentTask

PathLike = Union[str, Path]

#: Suffix of every cache entry file.
ENTRY_SUFFIX = ".json"

#: Sidecar file holding cumulative cache metadata (eviction counter).
META_FILENAME = "_meta.json"

#: Entry field holding the SHA-256 over the rest of the document.
CHECKSUM_FIELD = "checksum"

#: Subdirectory corrupt entries are moved into (outside the entry
#: namespace: ``_entry_paths`` never descends into directories).
QUARANTINE_DIRNAME = "quarantine"

#: Temporary-file patterns of the cache's own atomic writers (entries,
#: ``_meta.json``, ``_costs.json``).
TMP_PATTERNS = ("*.tmp", "*.metatmp", "*.coststmp")

#: Age (mtime seconds) past which a leftover temporary file is considered
#: the debris of a dead writer and swept on :class:`ResultCache` open.
#: Live writers hold their temp files for milliseconds; an hour-old one
#: belongs to a process that crashed mid-put.
STALE_TMP_SECONDS = 3600.0

#: Counters batched by :meth:`ResultCache.sync_persistent_stats` instead
#: of being written per event: ``get`` is a hot path (one lookup per
#: campaign task), so its counters flush once per campaign run rather
#: than once per hit.  ``evictions``/``stores_dropped`` keep their
#: per-event persistence — they are rare and must survive crashes.
SYNCED_STAT_NAMES = ("hits", "misses", "stores", "bytes_served")

logger = logging.getLogger("repro.runtime.cache")


def _verify_entry_bytes(raw: bytes) -> str:
    """Classify raw entry bytes: ``"ok"`` / ``"legacy"`` / ``"corrupt"``."""
    try:
        document = json.loads(raw)
    except ValueError:
        return "corrupt"
    if not isinstance(document, dict):
        return "corrupt"
    checksum = document.pop(CHECKSUM_FIELD, None)
    if "task" not in document or "result" not in document:
        return "corrupt"
    if checksum is None:
        return "legacy"
    if checksum != _document_checksum(document):
        return "corrupt"
    return "ok"


def _document_checksum(document: dict) -> str:
    """SHA-256 over the canonical serialisation of an entry document.

    Computed before the ``checksum`` field is added (and after it is
    popped, on read).  Canonical form — sorted keys, no whitespace — so
    the digest is independent of the field order the file happened to be
    written with.
    """
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance.

    ``stores_dropped`` counts stores whose entry exceeded the size cap on
    its own and therefore never persisted (see :meth:`ResultCache.put`);
    such a store is *not* counted as an eviction.  ``bytes_served`` is
    the cumulative on-disk size of every entry served by a hit — the
    simulation work the cache saved, in bytes read instead of re-run.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    stores_dropped: int = 0
    bytes_served: int = 0
    corrupt_entries: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups


@dataclass(frozen=True)
class CacheInfo:
    """Summary of the on-disk state of a cache directory.

    ``evictions`` is the cumulative number of size-cap evictions ever
    performed on this directory and ``stores_dropped`` the cumulative
    number of stores whose single entry exceeded the cap (both persisted
    across processes); ``max_bytes`` echoes the cap of the inspecting
    cache instance (``None`` = uncapped).
    """

    path: str
    entries: int
    total_bytes: int
    evictions: int = 0
    stores_dropped: int = 0
    max_bytes: Optional[int] = None
    hits: int = 0
    misses: int = 0
    bytes_served: int = 0
    corrupt_entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Lifetime fraction of lookups served from this directory."""
        lookups = self.hits + self.misses
        if not lookups:
            return 0.0
        return self.hits / lookups


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a :meth:`ResultCache.verify` integrity scan.

    ``legacy`` counts structurally valid entries written before the
    checksum field existed; ``quarantined`` names the files moved to
    ``quarantine/`` by this scan (empty with ``repair=False``).
    """

    path: str
    checked: int
    ok: int
    legacy: int
    corrupt: int
    quarantined: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the scan found no corruption."""
        return self.corrupt == 0


class ResultCache:
    """Content-addressed store of :class:`ExperimentResult` documents.

    Parameters
    ----------
    directory:
        Cache root; created (with parents) on first use.
    max_bytes:
        Optional size cap.  After every store, least-recently-used entries
        are evicted until the total entry size fits the cap.  A single
        entry larger than the cap on its own is dropped up front with a
        warning and counted in ``stats.stores_dropped`` (see
        :meth:`put`); it never displaces the existing entries.
    shard_depth:
        Hex-prefix length used to spread entries over subdirectories
        (``0`` keeps the flat layout).  Reads fall back to the flat
        path, so raising the depth on a populated directory never loses
        entries.  Purely a placement knob — never part of a fingerprint.
    """

    def __init__(
        self,
        directory: PathLike,
        max_bytes: Optional[int] = None,
        *,
        shard_depth: int = 0,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if not 0 <= shard_depth <= 8:
            raise ValueError(
                f"shard_depth must be in [0, 8], got {shard_depth}"
            )
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self.shard_depth = shard_depth
        self.stats = CacheStats()
        # Snapshot of the stats already flushed to the ``_meta.json``
        # sidecar; sync_persistent_stats() persists only the delta since
        # the previous flush, so calling it repeatedly never double-counts.
        self._synced: Dict[str, int] = {name: 0 for name in SYNCED_STAT_NAMES}
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove aged temp files left behind by writers that died mid-put.

        ``cache prune`` and :meth:`clear` sweep them too, but a crashed
        run whose cache is only ever opened (never pruned) would grow the
        directory unboundedly.  The age gate keeps the sweep safe under
        concurrency: a live writer's temp file is milliseconds old.
        """
        if not self.directory.is_dir():
            return 0
        cutoff = time.time() - STALE_TMP_SECONDS
        removed = 0
        for pattern in TMP_PATTERNS + tuple(
            f"[0-9a-f]*/{suffix}" for suffix in TMP_PATTERNS
        ):
            for stale in self.directory.glob(pattern):
                try:
                    if stale.stat().st_mtime <= cutoff:
                        stale.unlink()
                        removed += 1
                except OSError:  # pragma: no cover - raced with another sweep
                    continue
        if removed:
            logger.info(
                "swept %d stale temporary file(s) from %s",
                removed,
                self.directory,
            )
        return removed

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        """Where an entry for ``key`` is *written* under this layout."""
        if self.shard_depth and len(key) > self.shard_depth:
            return (
                self.directory / key[: self.shard_depth]
                / f"{key}{ENTRY_SUFFIX}"
            )
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def _existing_entry_path(self, key: str) -> Path:
        """Where an entry for ``key`` is *read* from.

        This instance's layout when the entry exists there, otherwise
        any other depth's placement of the same key — so a directory
        populated before sharding was enabled (or by a peer with a
        different depth) keeps serving every entry to every reader.
        """
        preferred = self._entry_path(key)
        if preferred.exists():
            return preferred
        name = f"{key}{ENTRY_SUFFIX}"
        candidates = [self.directory / name] + [
            self.directory / key[:depth] / name
            for depth in range(1, min(8, len(key) - 1) + 1)
        ]
        for candidate in candidates:
            if candidate != preferred and candidate.exists():
                return candidate
        return preferred

    def _entry_paths(self) -> List[Path]:
        # The directory is created lazily by put(), so a cache that never
        # stored anything (e.g. ``cache info`` on a typo'd path) does not
        # leave an empty directory behind.  Sidecar files (``_``-prefixed)
        # are metadata, not entries.  Shard subdirectories are scanned
        # regardless of this instance's shard_depth, so info/verify/prune
        # see every entry of a directory written at any depth; the
        # quarantine/ subdirectory stays outside the entry namespace.
        if not self.directory.is_dir():
            return []
        paths = [
            path
            for path in self.directory.glob(f"*{ENTRY_SUFFIX}")
            if not path.name.startswith("_")
        ]
        for subdir in self.directory.iterdir():
            if (
                not subdir.is_dir()
                or subdir.name == QUARANTINE_DIRNAME
                or subdir.name.startswith("_")
            ):
                continue
            paths.extend(
                path
                for path in subdir.glob(f"*{ENTRY_SUFFIX}")
                if not path.name.startswith("_")
            )
        return sorted(paths)

    # ------------------------------------------------------------------
    def contains(self, task: ExperimentTask) -> bool:
        """Return whether an entry for ``task`` exists (no stats update).

        A positive answer refreshes the entry's LRU recency exactly like
        :meth:`get` — callers pre-scanning a batch (``contains`` now,
        ``get`` later) and the eviction policy must agree on what was
        recently used, otherwise a size-cap prune between the scan and
        the read can evict an entry the scan just promised.
        """
        path = self._existing_entry_path(task.key())
        if not path.exists():
            return False
        try:
            os.utime(path)  # refresh LRU recency, same as a hit
        except OSError:  # pragma: no cover - entry raced away
            pass
        return True

    def get(self, task: ExperimentTask) -> Optional[ExperimentResult]:
        """Return the cached result of ``task``, or ``None`` on a miss.

        A corrupt or mismatching entry — failed checksum, malformed or
        truncated JSON, incompatible fingerprint format — counts as a
        miss and is quarantined (see :meth:`_quarantine`) so the caller
        re-runs and overwrites it while the bad bytes stay inspectable.
        """
        path = self._existing_entry_path(task.key())
        faults.maybe_corrupt_file(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        result = self._decode_entry(raw, task)
        if result is None:
            # Any malformed document shape (non-object JSON, wrong field
            # types, truncated entries, checksum mismatches) is treated
            # the same way: quarantine and recompute.
            self._quarantine(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.bytes_served += len(raw)
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:  # pragma: no cover - entry raced away
            pass
        return result

    def _decode_entry(
        self, raw: bytes, task: ExperimentTask
    ) -> Optional[ExperimentResult]:
        """Parse + verify raw entry bytes against ``task``; None if invalid."""
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("cache entry is not a JSON object")
            checksum = document.pop(CHECKSUM_FIELD, None)
            if checksum is not None and checksum != _document_checksum(document):
                raise ValueError("cache entry failed its payload checksum")
            if document.get("task") != task.fingerprint():
                raise ValueError("cache entry does not match task fingerprint")
            return result_from_dict(document["result"])
        except (ValueError, KeyError, TypeError, AttributeError,
                json.JSONDecodeError):
            return None

    def put(self, task: ExperimentTask, result: ExperimentResult) -> Path:
        """Store ``result`` under the content hash of ``task``.

        Snapshots are always included so a cached result is as faithful as a
        fresh run; the write goes through a temporary file so a concurrent
        reader never sees a partial entry.

        An entry larger than ``max_bytes`` on its own can never fit the
        cap.  Handing it to the LRU prune would first evict every *older*
        entry and then the new one — silently emptying the cache for a
        store that fails anyway — so the oversized entry is dropped
        directly instead: a warning is emitted, ``stats.stores_dropped``
        (and the persistent counter surfaced by ``cache info``) is
        incremented, and the other entries are left untouched.  The
        returned path does not exist in that case.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._entry_path(task.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "key": task.key(),
            "task": task.fingerprint(),
            "result": result_to_dict(result, include_snapshots=True),
        }
        document[CHECKSUM_FIELD] = _document_checksum(document)
        payload = faults.maybe_corrupt_bytes(
            faults.KIND_CORRUPT_WRITE, json.dumps(document).encode("utf-8")
        )
        # Unique per-process temp name: concurrent writers of the same task
        # never interleave into one file, and replace() stays atomic.
        tmp_path = path.with_suffix(f".{os.getpid()}.tmp")
        tmp_path.write_bytes(payload)
        if self.max_bytes is not None:
            entry_bytes = tmp_path.stat().st_size
            if entry_bytes > self.max_bytes:
                tmp_path.unlink(missing_ok=True)
                self.stats.stores_dropped += 1
                self._bump_persistent_counter("stores_dropped", 1)
                logger.warning(
                    "result of task %s is %d bytes, larger than the cache "
                    "cap of %d bytes; the store was dropped (raise "
                    "max_bytes to cache results of this size)",
                    task.key()[:12],
                    entry_bytes,
                    self.max_bytes,
                )
                return path
        tmp_path.replace(path)
        self.stats.stores += 1
        if self.max_bytes is not None:
            self.prune()
        return path

    # ------------------------------------------------------------------
    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry into ``quarantine/`` and count it.

        Returns the quarantine destination (``None`` when the move
        failed and the entry was unlinked instead — the cache must never
        keep serving a corrupt file).  Counted in the in-memory stats
        and the persistent ``corrupt_entries`` counter; like evictions,
        corruption is rare and must survive crashes, so it is persisted
        per event rather than batched.
        """
        destination: Optional[Path] = None
        try:
            quarantine_dir = self.directory / QUARANTINE_DIRNAME
            quarantine_dir.mkdir(parents=True, exist_ok=True)
            destination = quarantine_dir / path.name
            path.replace(destination)
        except OSError:
            destination = None
            path.unlink(missing_ok=True)
        self.stats.corrupt_entries += 1
        self._bump_persistent_counter("corrupt_entries", 1)
        logger.warning(
            "quarantined corrupt or mismatching cache entry %s%s",
            path.name,
            f" -> {destination}" if destination is not None else " (unlinked)",
        )
        return destination

    def verify(self, repair: bool = True) -> "VerifyReport":
        """Scan every entry; validate JSON structure and payload checksum.

        With ``repair`` (the default) corrupt entries are quarantined;
        otherwise the scan only reports.  Entries written before the
        checksum field are reported as ``legacy`` and accepted.  Backs
        the ``repro cache verify`` subcommand — the periodic trust check
        a cache directory shared between machines needs.
        """
        checked = ok = legacy = corrupt = 0
        quarantined: List[str] = []
        for path in self._entry_paths():
            status = self._verify_entry(path)
            if status == "missing":  # raced away mid-scan
                continue
            checked += 1
            if status == "ok":
                ok += 1
            elif status == "legacy":
                legacy += 1
            else:
                corrupt += 1
                if repair and self._quarantine(path) is not None:
                    quarantined.append(path.name)
        return VerifyReport(
            path=str(self.directory),
            checked=checked,
            ok=ok,
            legacy=legacy,
            corrupt=corrupt,
            quarantined=quarantined,
        )

    def _verify_entry(self, path: Path) -> str:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return "missing"
        except OSError:
            return "corrupt"
        return _verify_entry_bytes(raw)

    # ------------------------------------------------------------------
    def evict(self, task: ExperimentTask) -> bool:
        """Remove the entry of ``task``; returns whether one existed."""
        path = self._existing_entry_path(task.key())
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed.

        Also sweeps up ``*.tmp`` leftovers of writers that died mid-put
        and the ``quarantine/`` subdirectory (neither is counted as an
        entry).
        """
        removed = 0
        shard_dirs = set()
        for path in self._entry_paths():
            if path.parent != self.directory:
                shard_dirs.add(path.parent)
            path.unlink()
            removed += 1
        if self.directory.is_dir():
            for pattern in TMP_PATTERNS + tuple(
                f"[0-9a-f]*/{suffix}" for suffix in TMP_PATTERNS
            ):
                for stale in self.directory.glob(pattern):
                    stale.unlink()
            for shard_dir in shard_dirs:
                try:
                    shard_dir.rmdir()
                except OSError:  # pragma: no cover - not empty / raced
                    pass
            quarantine_dir = self.directory / QUARANTINE_DIRNAME
            if quarantine_dir.is_dir():
                for item in quarantine_dir.iterdir():
                    try:
                        item.unlink()
                    except OSError:  # pragma: no cover - raced away
                        pass
                try:
                    quarantine_dir.rmdir()
                except OSError:  # pragma: no cover - raced away
                    pass
        return removed

    def prune(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cache fits the cap.

        ``max_bytes`` overrides the instance cap for this call (the
        ``cache prune`` CLI passes it explicitly).  Returns the number of
        entries evicted; with no cap configured at all, prunes nothing.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None:
            return 0
        if cap < 0:
            raise ValueError(f"max_bytes must be >= 0, got {cap}")
        aged: List[tuple] = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:  # concurrent eviction
                continue
            aged.append((stat.st_mtime, path.name, path, stat.st_size))
            total += stat.st_size
        aged.sort()  # oldest first; name breaks mtime ties deterministically
        evicted = 0
        for _, _, path, size in aged:
            if total <= cap:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            self._bump_persistent_counter("evictions", evicted)
            logger.info(
                "pruned %d least-recently-used cache entr%s to fit %d bytes",
                evicted,
                "y" if evicted == 1 else "ies",
                cap,
            )
        return evicted

    # ------------------------------------------------------------------
    def _meta_path(self) -> Path:
        return self.directory / META_FILENAME

    def _read_meta(self) -> dict:
        try:
            meta = json.loads(self._meta_path().read_text(encoding="utf-8"))
            return meta if isinstance(meta, dict) else {}
        except (OSError, ValueError):
            return {}

    def _read_persistent_counter(self, name: str) -> int:
        try:
            return int(self._read_meta().get(name, 0))
        except (ValueError, TypeError):
            return 0

    def _bump_persistent_counter(self, name: str, count: int) -> None:
        self._bump_persistent_counters({name: count})

    def _bump_persistent_counters(self, counts: Dict[str, int]) -> None:
        # The read-modify-write is guarded by an advisory lock so two
        # processes pruning one shared directory cannot lose increments;
        # everything here is best-effort (the counters are diagnostics,
        # the cache itself never depends on them).
        lock_path = self.directory / "_meta.lock"
        try:
            import fcntl

            with open(lock_path, "a+", encoding="utf-8") as lock_file:
                fcntl.flock(lock_file, fcntl.LOCK_EX)
                self._write_meta_counters(counts)
        except (ImportError, OSError):  # pragma: no cover - lockless platform
            self._write_meta_counters(counts)

    def _write_meta_counters(self, counts: Dict[str, int]) -> None:
        meta = self._read_meta()
        for name, count in counts.items():
            try:
                current = int(meta.get(name, 0))
            except (TypeError, ValueError):
                current = 0
            meta[name] = current + count
        tmp = self._meta_path().with_suffix(f".{os.getpid()}.metatmp")
        try:
            tmp.write_text(json.dumps(meta), encoding="utf-8")
            tmp.replace(self._meta_path())
        except OSError:  # pragma: no cover - metadata is best-effort
            tmp.unlink(missing_ok=True)

    def sync_persistent_stats(self) -> None:
        """Flush the hit/miss/store/bytes-served deltas to ``_meta.json``.

        Called at the end of a campaign run (and by ``cache info``) so the
        hot lookup path never touches the sidecar.  Only the delta since
        the previous flush is written, under one lock acquisition, and a
        directory that was never created stays absent.
        """
        deltas = {}
        for name in SYNCED_STAT_NAMES:
            delta = getattr(self.stats, name) - self._synced[name]
            if delta:
                deltas[name] = delta
        if not deltas or not self.directory.is_dir():
            return
        self._bump_persistent_counters(deltas)
        for name, delta in deltas.items():
            self._synced[name] += delta

    def info(self) -> CacheInfo:
        """Describe the on-disk state (entry count, size, evictions)."""
        entries = 0
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except FileNotFoundError:  # concurrently evicted by another process
                continue
            entries += 1
        return CacheInfo(
            path=str(self.directory),
            entries=entries,
            total_bytes=total,
            evictions=self._read_persistent_counter("evictions"),
            stores_dropped=self._read_persistent_counter("stores_dropped"),
            max_bytes=self.max_bytes,
            hits=self._read_persistent_counter("hits"),
            misses=self._read_persistent_counter("misses"),
            bytes_served=self._read_persistent_counter("bytes_served"),
            corrupt_entries=self._read_persistent_counter("corrupt_entries"),
        )
