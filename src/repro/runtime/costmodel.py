"""Persistent cost models: the straggler-hedge predictor of a campaign.

The paper's evaluation grid mixes tasks whose wall-clock costs differ by
orders of magnitude (a 16-node no-churn run finishes in well under a
second; a large 10/10-churn run takes minutes).  A worker that hangs on
one task should be noticed after a few times that task's usual cost, not
after a fixed timeout that is either far too short for the large runs or
far too long for the small ones.  This module supplies that expectation:

* :class:`CostModel` — a keyed running mean of observed costs with an
  optional JSON sidecar, so observations survive across processes;
* :class:`TaskCostModel` — the experiment-task instantiation: wall-clock
  seconds keyed by a coarse *task shape fingerprint* (profile, scenario
  size class, churn, traffic, algorithm), stored in a ``_costs.json``
  sidecar beside the result cache (the ``_`` prefix keeps it out of the
  cache's entry namespace, like ``_meta.json``).

Cost models are **hints only**.  They set the deadline after which a
flight is hedged; they never enter a task fingerprint, a cache key, or
any recorded statistic, so a missing, stale or corrupt sidecar can
change how long a campaign takes but never what it computes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.runtime.task import ExperimentTask

PathLike = Union[str, Path]

#: Sidecar file holding observed task costs (lives beside the result
#: cache; ``_``-prefixed so the cache never mistakes it for an entry).
COSTS_FILENAME = "_costs.json"

#: Layout version of the sidecar document.
COSTS_FORMAT_VERSION = 1

#: Observation-count clamp of the running mean.  Keeping the effective
#: sample size bounded turns the mean into a slow EWMA, so the model
#: adapts when the host (or the code) gets faster instead of averaging
#: over stale history forever.
MAX_OBSERVATIONS = 64


class CostModel:
    """Keyed running mean of observed costs, optionally persisted.

    Parameters
    ----------
    path:
        JSON sidecar location.  ``None`` keeps the model in-memory only.
        Loading is best-effort: a missing or corrupt sidecar yields an
        empty model (no flight is hedged until shapes are observed again;
        results are unaffected).
    """

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: Dict[str, Dict[str, float]] = {}
        self._dirty = False
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if self.path is None:
            return
        try:
            document = json.loads(self.path.read_text(encoding="utf-8"))
            entries = document["entries"]
            loaded: Dict[str, Dict[str, float]] = {}
            for key, entry in entries.items():
                loaded[str(key)] = {
                    "mean": float(entry["mean"]),
                    "count": int(entry["count"]),
                }
            self._entries = loaded
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            # Missing or malformed sidecar: start empty.  The model is a
            # hedging hint, never a correctness dependency.
            self._entries = {}

    def save(self) -> None:
        """Persist the model atomically (no-op when in-memory or clean)."""
        if self.path is None or not self._dirty:
            return
        document = {
            "format": COSTS_FORMAT_VERSION,
            "entries": self._entries,
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".{os.getpid()}.coststmp")
            tmp.write_text(
                json.dumps(document, sort_keys=True), encoding="utf-8"
            )
            tmp.replace(self.path)
            self._dirty = False
        except OSError:  # pragma: no cover - persistence is best-effort
            pass

    # ------------------------------------------------------------------
    def observe(self, key: str, seconds: float) -> None:
        """Fold one observed cost into the running mean of ``key``."""
        if seconds < 0:
            return
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = {"mean": float(seconds), "count": 1}
        else:
            count = min(int(entry["count"]), MAX_OBSERVATIONS - 1)
            entry["mean"] += (seconds - entry["mean"]) / (count + 1)
            entry["count"] = count + 1
        self._dirty = True

    def estimate(self, key: str) -> Optional[float]:
        """Mean observed cost of ``key`` in seconds, or ``None`` if unseen."""
        entry = self._entries.get(key)
        return None if entry is None else float(entry["mean"])

    def observations(self, key: str) -> int:
        """Number of folded observations of ``key`` (clamped)."""
        entry = self._entries.get(key)
        return 0 if entry is None else int(entry["count"])

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
def task_shape_key(task: ExperimentTask) -> str:
    """Coarse cost fingerprint of an experiment task.

    Deliberately much coarser than the task's content hash: it names only
    the dimensions that dominate wall-clock cost (profile and network
    size class fix the node count and time axis, churn fixes the
    simulation length, traffic fixes the event rate, the algorithm fixes
    the per-flow cost).  Seeds and swept protocol parameters (``k``,
    ``alpha``, ``s``, loss) fold into one bucket, which is what lets a
    fresh sweep's deadlines come from costs observed on *previous* sweeps.
    """
    scenario = task.scenario
    return "/".join(
        (
            "task",
            task.profile.name,
            scenario.size_class,
            scenario.churn,
            "traffic" if scenario.traffic else "quiet",
            task.measurement.algorithm,
        )
    )


class TaskCostModel(CostModel):
    """Cost model over :class:`ExperimentTask` shapes.

    The campaign driver observes ``result.wall_seconds`` after every
    executed (non-cached) task and derives each flight's straggler
    deadline from :meth:`estimate_task`.
    """

    @classmethod
    def for_cache(cls, cache) -> "TaskCostModel":
        """Model persisted in a ``_costs.json`` sidecar beside ``cache``.

        ``cache`` is a :class:`~repro.runtime.cache.ResultCache`; the
        sidecar shares its directory but sits outside the entry namespace
        (``_`` prefix), so ``cache clear`` — like the ``_meta.json``
        counters — deliberately leaves it alone: observations describe
        task *shapes*, not cached entries, and stay valid when the
        results are purged.  Delete the file by hand to reset the model.
        """
        return cls(Path(cache.directory) / COSTS_FILENAME)

    # ------------------------------------------------------------------
    def observe_task(self, task: ExperimentTask, seconds: float) -> None:
        """Record the observed wall-clock of one executed task."""
        self.observe(task_shape_key(task), seconds)

    def estimate_task(self, task: ExperimentTask) -> Optional[float]:
        """Estimated wall-clock of ``task``, or ``None`` for unseen shapes."""
        return self.estimate(task_shape_key(task))
