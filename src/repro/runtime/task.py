"""The unit of work of the experiment runtime.

An :class:`ExperimentTask` pins down everything that determines one
:class:`~repro.experiments.runner.ExperimentResult`: the scenario, the fully
resolved scale profile, the root seed, the max-flow algorithm and whether
routing-table snapshots are kept.  Because the simulation is a pure function
of these inputs (every stochastic component draws from named child streams
of the root seed, see :mod:`repro.simulator.random_source`), a task's
content hash is a valid cache key and tasks can run in any process without
changing their output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict

from repro.experiments.profiles import ScaleProfile, get_profile
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import Scenario

#: Version of the task fingerprint layout.  Bump when the meaning of a
#: fingerprint field changes so stale cache entries can never be mistaken
#: for current ones.
TASK_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentTask:
    """One fully specified simulation run.

    ``flow_jobs`` configures the per-snapshot batched pair-flow engine and
    is deliberately **excluded** from the fingerprint: the engine produces
    bit-identical statistics for any worker count, so two tasks differing
    only in ``flow_jobs`` are the same experiment and share one cache
    entry.  ``adaptive_shards`` (cost-model-driven shard sizing and
    tightness-ordered minimum passes, see
    :mod:`repro.runtime.pairflow`) is excluded for the same reason:
    scheduling changes only *when* flows run, never any recorded
    statistic.

    ``connectivity`` selects the per-snapshot measurement mode:
    ``"exact"`` (the paper's pipeline, the default) or ``"estimate"``
    (sampled-pair estimation, :mod:`repro.core.estimation`).  The mode
    and its ``sample_pairs`` / ``ci_level`` parameters are
    **identity-bearing** — estimated results are statistically, not
    bit-, compatible with exact ones, so they live under their own
    fingerprint dimension.  Exact-mode fingerprints keep the
    pre-estimation encoding (keys omitted) so committed cache entries
    stay valid.
    """

    scenario: Scenario
    profile: ScaleProfile
    seed: int
    algorithm: str = "dinic"
    keep_snapshots: bool = False
    flow_jobs: int = 1
    adaptive_shards: bool = False
    connectivity: str = "exact"
    sample_pairs: int = 256
    ci_level: float = 0.95

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        scenario: Scenario,
        profile: "ScaleProfile | str",
        seed: int,
        algorithm: str = "dinic",
        keep_snapshots: bool = False,
        flow_jobs: int = 1,
        adaptive_shards: bool = False,
        connectivity: str = "exact",
        sample_pairs: int = 256,
        ci_level: float = 0.95,
    ) -> "ExperimentTask":
        """Build a task, resolving a profile name to its definition."""
        if connectivity not in ("exact", "estimate"):
            raise ValueError(
                f"connectivity must be 'exact' or 'estimate', got {connectivity!r}"
            )
        resolved = get_profile(profile) if isinstance(profile, str) else profile
        return cls(
            scenario=scenario,
            profile=resolved,
            seed=int(seed),
            algorithm=algorithm,
            keep_snapshots=keep_snapshots,
            flow_jobs=int(flow_jobs),
            adaptive_shards=bool(adaptive_shards),
            connectivity=connectivity,
            sample_pairs=int(sample_pairs),
            ci_level=float(ci_level),
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> Dict:
        """Return the canonical JSON-serialisable identity of this task.

        Every field that influences the result is included (``flow_jobs``
        and ``adaptive_shards`` are not — see the class docstring); two
        tasks are interchangeable exactly when their fingerprints are
        equal.  The overlay protocol is identity-bearing, but Kademlia
        fingerprints keep the pre-protocol-dimension encoding (key
        omitted) so committed cache entries stay valid.
        """
        scenario = asdict(self.scenario)
        if scenario.get("protocol") == "kademlia":
            del scenario["protocol"]
        fingerprint = {
            "format": TASK_FORMAT_VERSION,
            "scenario": scenario,
            "profile": asdict(self.profile),
            "seed": self.seed,
            "algorithm": self.algorithm,
            "keep_snapshots": self.keep_snapshots,
        }
        if self.connectivity != "exact":
            fingerprint["connectivity"] = {
                "mode": self.connectivity,
                "sample_pairs": self.sample_pairs,
                "ci_level": self.ci_level,
            }
        return fingerprint

    def key(self) -> str:
        """Content-addressed key: SHA-256 over the canonical fingerprint.

        The fingerprint is serialised with sorted keys and no whitespace, so
        the key is stable across processes, platforms and Python's per-run
        hash randomisation.
        """
        canonical = json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable description (progress reporting)."""
        return (
            f"{self.scenario.name} [profile={self.profile.name}, "
            f"seed={self.seed}, algorithm={self.algorithm}]"
        )

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the task in the current process."""
        return ExperimentRunner.for_task(self).run(self.scenario)


def execute_task(task: ExperimentTask) -> ExperimentResult:
    """Module-level task entry point (picklable for process pools).

    Every task of every flight — in-process, pool worker or distributed
    worker — runs through here
    (via :func:`~repro.runtime.executor.execute_task_batch`), which makes
    this the one injection site for the deterministic fault harness
    (:mod:`repro.runtime.faults`); a no-op when ``REPRO_FAULTS`` is
    unset.
    """
    from repro.runtime import faults

    faults.maybe_inject_task_fault(task.label())
    return task.run()


def derive_seed(root_seed: int, *parts: object) -> int:
    """Derive a child seed from ``root_seed`` and a path of name parts.

    Mirrors :meth:`repro.simulator.random_source.RandomSource.spawn`: the
    derivation hashes the textual path, so it is stable across processes and
    independent of execution order.  Used by the campaign driver to give
    every replication its own reproducible universe.
    """
    path = "/".join(str(part) for part in parts)
    digest = hashlib.sha256(f"{int(root_seed)}/{path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
