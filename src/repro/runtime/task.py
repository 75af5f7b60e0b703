"""The unit of work of the experiment runtime.

An :class:`ExperimentTask` pins down everything that determines one
:class:`~repro.experiments.runner.ExperimentResult`: the scenario, the fully
resolved scale profile, the root seed, the measurement and whether
routing-table snapshots are kept.  Because the simulation is a pure function
of these inputs (every stochastic component draws from named child streams
of the root seed, see :mod:`repro.simulator.random_source`), a task's
content hash is a valid cache key and tasks can run in any process without
changing their output.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Dict

from repro.digest import sha256
from repro.experiments.profiles import ScaleProfile, get_profile
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import Scenario
from repro.options import ExecutionOptions, MeasurementSpec

#: Version of the task fingerprint layout.  Bump when the meaning of a
#: fingerprint field changes so stale cache entries can never be mistaken
#: for current ones.
TASK_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ExperimentTask:
    """One fully specified simulation run.

    ``measurement`` (:class:`~repro.options.MeasurementSpec`) is
    **identity-bearing**: the max-flow algorithm and the per-snapshot
    connectivity mode with its sampling parameters decide what the run
    records, so they are part of the fingerprint.

    ``execution`` (:class:`~repro.options.ExecutionOptions`) rides along
    so the run can configure its pair-flow engine wherever it executes,
    and is **identity-free**: every combination produces bit-identical
    statistics, so :meth:`fingerprint` is computed from the other fields
    only, and two tasks differing only in ``execution`` are the same
    experiment — equal, and sharing one cache entry.
    """

    scenario: Scenario
    profile: ScaleProfile
    seed: int
    keep_snapshots: bool = False
    measurement: MeasurementSpec = MeasurementSpec()
    execution: ExecutionOptions = field(
        default=ExecutionOptions(), compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        scenario: Scenario,
        profile: "ScaleProfile | str",
        seed: int,
        keep_snapshots: bool = False,
        measurement: MeasurementSpec = MeasurementSpec(),
        execution: ExecutionOptions = ExecutionOptions(),
    ) -> "ExperimentTask":
        """Build a task, resolving a profile name to its definition."""
        resolved = get_profile(profile) if isinstance(profile, str) else profile
        return cls(
            scenario=scenario,
            profile=resolved,
            seed=int(seed),
            keep_snapshots=keep_snapshots,
            measurement=measurement,
            execution=execution,
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> Dict:
        """Return the canonical JSON-serialisable identity of this task.

        Every field that influences the result is included — the identity
        fields plus :meth:`MeasurementSpec.fingerprint`; ``execution`` is
        never consulted (see the class docstring) — and two tasks are
        interchangeable exactly when their fingerprints are equal.  The
        overlay protocol is identity-bearing, but Kademlia fingerprints
        keep the pre-protocol-dimension encoding (key omitted) so
        committed cache entries stay valid.

        Computed once per object and shared between calls: read it, do
        not modify it.
        """
        return self._fingerprint

    def key(self) -> str:
        """Content-addressed key: SHA-256 over the canonical fingerprint.

        The fingerprint is serialised with sorted keys and no whitespace, so
        the key is stable across processes, platforms and Python's per-run
        hash randomisation.  Computed once per object.
        """
        return self._key

    # A cache read asks for the key (the entry's path) and the fingerprint
    # (the entry's match): two deep ``asdict`` copies, a ``json.dumps`` and
    # a SHA-256 each time.  The task is frozen, so both are memoised in
    # the instance ``__dict__`` — not dataclass fields, hence not compared,
    # not in ``repr``, and absent from a ``dataclasses.replace`` copy.
    @cached_property
    def _fingerprint(self) -> Dict:
        scenario = asdict(self.scenario)
        if scenario.get("protocol") == "kademlia":
            del scenario["protocol"]
        return {
            "format": TASK_FORMAT_VERSION,
            "scenario": scenario,
            "profile": asdict(self.profile),
            "seed": self.seed,
            "keep_snapshots": self.keep_snapshots,
            **self.measurement.fingerprint(),
        }

    @cached_property
    def _key(self) -> str:
        canonical = json.dumps(
            self._fingerprint, sort_keys=True, separators=(",", ":")
        )
        return sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable description (progress reporting)."""
        return (
            f"{self.scenario.name} [profile={self.profile.name}, "
            f"seed={self.seed}, algorithm={self.measurement.algorithm}]"
        )

    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the task in the current process."""
        return ExperimentRunner.for_task(self).run(self.scenario)


def execute_task(task: ExperimentTask) -> ExperimentResult:
    """Module-level task entry point (picklable for process pools).

    Every task of every flight — in-process or in a pool worker — runs
    through here (the campaign submits it on its session), which makes
    this the one injection site for the deterministic fault
    harness (:mod:`repro.runtime.faults`); a no-op when ``REPRO_FAULTS``
    is unset.
    """
    from repro.runtime import faults

    faults.maybe_inject_task_fault(task.label())
    return task.run()
