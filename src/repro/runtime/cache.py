"""Content-addressed on-disk cache of experiment results.

Every entry is one JSON document named after the task's content hash
(:meth:`repro.runtime.task.ExperimentTask.key`) and contains both the task
fingerprint and the result serialised through
:mod:`repro.experiments.persistence`.  Storing the fingerprint alongside the
result lets :meth:`ResultCache.get` verify that an entry really belongs to
the requesting task (guarding against fingerprint-format drift) and lets
``cache info`` describe what is in the cache without re-deriving anything.

Entries sit flat in the cache directory as ``<key>.json``.  The cache
is size-capped only on demand: :meth:`ResultCache.prune` (``cache prune
--max-bytes N``) evicts least-recently-used entries until the directory
fits the cap.  Recency is tracked through file modification times — a
hit (``get``) touches the entry — so the policy survives process
restarts without any index file.  The cumulative eviction counter and
the hit/miss/corrupt counters are persisted in a ``_meta.json`` sidecar
(never counted as an entry) and surfaced by ``cache info``.

Integrity tier: every entry written by :meth:`ResultCache.put` carries a
``checksum`` field — SHA-256 over the canonical serialisation of the
rest of the document — verified by :meth:`ResultCache.get`.  An entry
that fails the checksum, fails to parse, or mismatches the requesting
fingerprint is **quarantined** (moved into a ``quarantine/``
subdirectory, counted in the persistent ``corrupt_entries`` stat) and
treated as a miss: the campaign recomputes and overwrites instead of
crashing, and the corrupt bytes stay available for post-mortems.
``repro cache verify`` scans a whole directory through
:meth:`ResultCache.verify`; ``get`` and ``verify`` apply the same entry
check (:func:`_checked_document`), so an entry without a checksum is
corrupt on both paths.

Concurrent writers need no lock: the key is a content hash (two writers
of one key write identical bytes) and the atomic tmp-file + ``rename``
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
#: ``_meta.json``).
TMP_PATTERNS = ("*.tmp", "*.metatmp")

#: Age (mtime seconds) past which a leftover temporary file is considered
#: the debris of a dead writer and swept on :class:`ResultCache` open.
#: Live writers hold their temp files for milliseconds; an hour-old one
#: belongs to a process that crashed mid-put.
STALE_TMP_SECONDS = 3600.0

#: Counters batched by :meth:`ResultCache.sync_persistent_stats` instead
#: of being written per event: ``get`` is a hot path (one lookup per
#: campaign task), so its counters flush once per campaign run rather
#: than once per hit.  ``evictions``/``corrupt_entries`` keep their
#: per-event persistence — they are rare and must survive crashes.
SYNCED_STAT_NAMES = ("hits", "misses", "stores", "bytes_served")

logger = logging.getLogger("repro.runtime.cache")


def _checked_document(raw: bytes) -> Optional[dict]:
    """The entry document in ``raw`` without its checksum; None if corrupt.

    The one entry check of :meth:`ResultCache.get` and
    :meth:`ResultCache.verify`: a JSON object holding ``task`` and
    ``result`` whose ``checksum`` is present and matches the rest.
    """
    try:
        document = json.loads(raw)
    except ValueError:
        return None
    if not isinstance(document, dict):
        return None
    checksum = document.pop(CHECKSUM_FIELD, None)
    if "task" not in document or "result" not in document:
        return None
    if checksum != _document_checksum(document):  # None never matches
        return None
    return document


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

    ``bytes_served`` is the cumulative on-disk size of every entry served
    by a hit — the simulation work the cache saved, in bytes read instead
    of re-run.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
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

    ``evictions`` is the cumulative number of prune evictions ever
    performed on this directory (persisted across processes).
    """

    path: str
    entries: int
    total_bytes: int
    evictions: int = 0
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

    ``quarantined`` names the files moved to ``quarantine/`` by this
    scan (empty with ``repair=False``).
    """

    path: str
    checked: int
    ok: int
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
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
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
        for pattern in TMP_PATTERNS:
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
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def _entry_paths(self) -> List[Path]:
        # The directory is created lazily by put(), so a cache that never
        # stored anything (e.g. ``cache info`` on a typo'd path) does not
        # leave an empty directory behind.  Sidecar files (``_``-prefixed)
        # are metadata, not entries; subdirectories (quarantine/) are
        # outside the entry namespace.
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for path in self.directory.glob(f"*{ENTRY_SUFFIX}")
            if not path.name.startswith("_")
        )

    # ------------------------------------------------------------------
    def get(self, task: ExperimentTask) -> Optional[ExperimentResult]:
        """Return the cached result of ``task``, or ``None`` on a miss.

        A corrupt or mismatching entry — missing or failed checksum,
        malformed or truncated JSON, incompatible fingerprint format —
        counts as a miss and is quarantined (see :meth:`_quarantine`) so
        the caller re-runs and overwrites it while the bad bytes stay
        inspectable.
        """
        path = self._entry_path(task.key())
        faults.maybe_corrupt_file(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        result = None
        document = _checked_document(raw)
        if document is not None and document["task"] == task.fingerprint():
            try:
                result = result_from_dict(document["result"])
            except (ValueError, KeyError, TypeError, AttributeError):
                pass
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

    def put(self, task: ExperimentTask, result: ExperimentResult) -> Path:
        """Store ``result`` under the content hash of ``task``.

        Snapshots are always included so a cached result is as faithful as a
        fresh run; the write goes through a temporary file so a concurrent
        reader never sees a partial entry.  Returns the entry's path.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._entry_path(task.key())
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
        tmp_path.replace(path)
        self.stats.stores += 1
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
        """Scan every entry with the same check as :meth:`get`.

        With ``repair`` (the default) corrupt entries are quarantined;
        otherwise the scan only reports.  Backs the ``repro cache
        verify`` subcommand — the periodic trust check a cache directory
        shared between machines needs.
        """
        checked = ok = corrupt = 0
        quarantined: List[str] = []
        for path in self._entry_paths():
            try:
                intact = _checked_document(path.read_bytes()) is not None
            except FileNotFoundError:  # raced away mid-scan
                continue
            except OSError:
                intact = False
            checked += 1
            if intact:
                ok += 1
            else:
                corrupt += 1
                if repair and self._quarantine(path) is not None:
                    quarantined.append(path.name)
        return VerifyReport(
            path=str(self.directory),
            checked=checked,
            ok=ok,
            corrupt=corrupt,
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed.

        Also sweeps up ``*.tmp`` leftovers of writers that died mid-put
        and the ``quarantine/`` subdirectory (neither is counted as an
        entry).
        """
        removed = 0
        for path in self._entry_paths():
            path.unlink()
            removed += 1
        if self.directory.is_dir():
            for pattern in TMP_PATTERNS:
                for stale in self.directory.glob(pattern):
                    stale.unlink()
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

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        Backs ``cache prune --max-bytes N``; returns the number of
        entries evicted.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
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
            if total <= max_bytes:
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
                max_bytes,
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
            hits=self._read_persistent_counter("hits"),
            misses=self._read_persistent_counter("misses"),
            bytes_served=self._read_persistent_counter("bytes_served"),
            corrupt_entries=self._read_persistent_counter("corrupt_entries"),
        )
