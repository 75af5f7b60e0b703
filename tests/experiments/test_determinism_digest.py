"""Seeded-run digests pinned across the simulator fast-path rewrite.

The fast-path PR (tuple-heap scheduler, allocation-lean Kademlia
messaging, incremental snapshot graphs, flow-pool reuse) must preserve
**bit-identical trajectories**: same seed ⇒ same event order, same
snapshots, same per-snapshot connectivity statistics.  The constants
below were captured by running the *pre-rewrite* implementation (commit
``7ef2694``) on this exact scenario/profile/seed matrix; the suite
asserts the current implementation still reproduces them.

The digest (:func:`repro.experiments.persistence.trajectory_digest`)
covers the full result document — transport counters, join/leave counts,
the connectivity time series and the raw routing-table snapshots
(including row order, which encodes the buckets' least-recently-seen
order) — excluding only wall-clock timings.  Event counts and snapshot
times are asserted separately so a failure localises quickly.

If a change breaks these digests it changes simulated trajectories:
either fix it, or (for an intentional semantic change) re-baseline the
constants AND invalidate the persistent result cache in the same PR.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.persistence import trajectory_digest
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.options import ExecutionOptions, MeasurementSpec

SEED = 42

#: (profile, scenario) -> digest of the pre-rewrite implementation.
GOLDEN_DIGESTS = {
    ("tiny", "A"): "cf0f4cb8bbd8a497cef3a11ffaf3c432c46ecd92687f77000b93815d1a41dab9",
    ("tiny", "E"): "fc166f8e8625eed963ae20e200a3027bf2b93f8174aff5307c98975aa0d5986f",
    ("tiny", "K"): "a4c1ad2f2b00413696e8ef37f92c6a9b5ec561092faaa37a547f2186f510fc5d",
    ("smoke", "E"): "0a3ce5fa0536a348de7460626991bc2489fb01ba13b9a1dd1ddab0d5b59a913b",
}

#: (profile, scenario, protocol) -> digest, pinned when the overlay seam
#: was introduced: Chord and Pastry run the same churn/attack scenarios
#: through the shared resilience pipeline, and their trajectories are as
#: frozen as Kademlia's.  Every digest must hold with observability on
#: or off (obs is identity-free).
OVERLAY_GOLDEN_DIGESTS = {
    ("tiny", "A", "chord"): "7787c685eb15104026d00ea68e75df36e5b0a9ca08169b310920ea010d6dcbf4",
    ("tiny", "E", "chord"): "03e452134d3da5f4fa4ed48c403b9b446a69f391ef8fe1dcd7fb36412b670329",
    ("tiny", "A", "pastry"): "cbbb78730f18b1f8d0220acd3bddb36cbd236ac52e3bfbc557dfbf6293e6fa0e",
    ("tiny", "E", "pastry"): "fa0097b0095921c552dce5d6b0d35e14ec93fe8c393c631b4508cf97f1d5d3d7",
}

#: (profile, scenario) -> (events processed, live pending events at the end,
#: snapshot times) of the pre-rewrite event loop.
GOLDEN_EVENTS = {
    ("tiny", "A"): (94, 16, [4.0, 8.0, 12.0, 16.0, 20.0, 24.0]),
    ("tiny", "E"): (1203, 26, [4.0, 8.0, 12.0, 16.0, 20.0, 22.0]),
    ("tiny", "K"): (2289, 40, [4.0, 8.0, 12.0, 16.0, 20.0, 22.0]),
    ("smoke", "E"): (1511, 36, [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 27.0]),
}


def run_result(profile: str, scenario: str, flow_jobs: int = 1):
    runner = ExperimentRunner(
        profile=profile, seed=SEED, keep_snapshots=True,
        execution=ExecutionOptions(flow_jobs=flow_jobs),
    )
    return runner.run(get_scenario(scenario))


class TestTrajectoryDigests:
    @pytest.mark.parametrize("profile,scenario", sorted(GOLDEN_DIGESTS))
    def test_serial_digest_matches_pre_rewrite(self, profile, scenario):
        result = run_result(profile, scenario)
        assert trajectory_digest(result) == GOLDEN_DIGESTS[(profile, scenario)]

    def test_parallel_flow_jobs_digest_matches_serial(self):
        # --flow-jobs is an execution knob, not an experiment parameter:
        # the shard/wave structure (and with it every statistic) must not
        # depend on the worker count, including with the run-wide shared
        # worker pool.
        result = run_result("tiny", "E", flow_jobs=2)
        assert trajectory_digest(result) == GOLDEN_DIGESTS[("tiny", "E")]


class TestOverlayTrajectoryDigests:
    """The protocol axis of the determinism gate.

    The scenario's ``protocol`` dimension selects the overlay via
    :mod:`repro.overlay`; the pinned digests freeze the Chord and Pastry
    trajectories exactly like the Kademlia ones above.  Kademlia needs no
    entry here — its scenarios ARE the ``GOLDEN_DIGESTS`` rows, untouched
    by the overlay refactor by construction (legacy-stable encoding).
    """

    @pytest.mark.parametrize(
        "profile,scenario,protocol", sorted(OVERLAY_GOLDEN_DIGESTS)
    )
    def test_digest_matches_pinned(self, profile, scenario, protocol):
        runner = ExperimentRunner(profile=profile, seed=SEED, keep_snapshots=True)
        result = runner.run(
            get_scenario(scenario).with_overrides(protocol=protocol)
        )
        assert (
            trajectory_digest(result)
            == OVERLAY_GOLDEN_DIGESTS[(profile, scenario, protocol)]
        )

    def test_overlay_snapshots_carry_their_protocol(self):
        runner = ExperimentRunner(profile="tiny", seed=SEED, keep_snapshots=True)
        result = runner.run(get_scenario("A").with_overrides(protocol="chord"))
        assert result.snapshots
        assert all(s.protocol == "chord" for s in result.snapshots)


class TestPoolOrderInvariance:
    """Tasks on a 2-worker pool complete out of submission order; that may
    change only *when* a task runs, never its digest — gated on every
    push by CI, with observability on and under injected worker crashes."""

    def test_worker_pool_reproduces_golden_digests(self):
        # A real pool, not the serial degenerate case: a bug in index
        # mapping or worker-side result keying lands here, not only in
        # the executor-vs-executor comparisons of the runtime suite.
        from repro.runtime.campaign import Campaign
        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.task import ExperimentTask

        tasks = [
            ExperimentTask.create(
                scenario=get_scenario(scenario), profile="tiny", seed=SEED,
                keep_snapshots=True,
            )
            for scenario in ("E", "A", "K")
        ]
        with Campaign(executor=ParallelExecutor(jobs=2)) as campaign:
            results = campaign.run(tasks)
        for result, scenario in zip(results, ("E", "A", "K")):
            assert (
                trajectory_digest(result) == GOLDEN_DIGESTS[("tiny", scenario)]
            ), f"worker pool diverged on tiny {scenario}"


#: Committed sample of the benchmark harness's result cache: the three
#: smallest entries of ``benchmarks/.result-cache`` (which itself is
#: local-only/gitignored), copied here so the byte-level gate runs on
#: every fresh checkout — CI included.  Written by the *pre-batching*
#: implementation; recomputed below through the campaign.  Re-baseline these files together with the golden digests
#: and the local result caches, never alone.
SAMPLED_ENTRIES_DIR = Path(__file__).parent / "data" / "sampled-cache-entries"


def _normalised_entry(document: dict) -> str:
    """Canonical JSON of a cache entry with wall-clock fields removed.

    Mirrors :func:`repro.experiments.persistence.trajectory_digest`'s
    exclusions (``wall_seconds`` and each report's ``elapsed_seconds``)
    but keeps everything else — including the stored task fingerprint and
    key — so two entries compare byte-identically on the full document.
    The envelope-level integrity ``checksum`` (added after the sample was
    committed) covers the raw stored bytes including wall-clock fields,
    so it is excluded alongside them.
    """
    document = copy.deepcopy(document)
    document.pop("checksum", None)
    document["result"].pop("wall_seconds", None)
    for sample in document["result"]["series"]["samples"]:
        sample["report"].pop("elapsed_seconds", None)
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


class TestSampledCacheEntries:
    """Recompute committed cache entries through the campaign.

    The campaign must reproduce the persisted result documents
    byte-for-byte, wall-clock excluded.  The
    committed sample holds the three smallest entries of the benchmark
    result cache — deterministic and the cheapest to re-simulate.
    """

    def test_sampled_entries_recompute_byte_identically(self, tmp_path):
        from repro.runtime.cache import ResultCache
        from repro.runtime.campaign import Campaign
        from repro.runtime.task import ExperimentTask
        from repro.experiments.profiles import ScaleProfile
        from repro.experiments.scenarios import Scenario

        sampled = sorted(SAMPLED_ENTRIES_DIR.glob("*.json"))
        assert len(sampled) == 3, "committed sample must hold 3 entries"

        for entry_path in sampled:
            committed = json.loads(entry_path.read_text(encoding="utf-8"))
            fingerprint = committed["task"]
            task = ExperimentTask(
                scenario=Scenario(**fingerprint["scenario"]),
                profile=ScaleProfile(**fingerprint["profile"]),
                seed=fingerprint["seed"],
                keep_snapshots=fingerprint["keep_snapshots"],
                measurement=MeasurementSpec(algorithm=fingerprint["algorithm"]),
            )
            assert task.key() == committed["key"]  # fingerprint round-trips

            cache = ResultCache(tmp_path / "cache")
            with Campaign(cache=cache) as campaign:
                campaign.run_one(task)
            fresh_path = tmp_path / "cache" / entry_path.name
            fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
            assert _normalised_entry(fresh) == _normalised_entry(committed)


class TestEventAccounting:
    @pytest.mark.parametrize("profile,scenario", sorted(GOLDEN_EVENTS))
    def test_event_counts_and_snapshot_times(self, profile, scenario):
        runner = ExperimentRunner(profile=profile, seed=SEED)
        scen = get_scenario(scenario)
        simulation = runner.build_simulation(scen)
        phases = runner.phase_schedule(scen)
        size = runner.profile.network_size(scen.size_class)
        snapshots = []
        simulation.schedule_setup(size, runner.profile.setup_minutes)
        simulation.schedule_traffic(1.0, phases.simulation_end)
        simulation.schedule_churn(phases.stabilization_end, phases.simulation_end)
        simulation.schedule_snapshots(
            phases.snapshot_times(runner.profile.snapshot_interval_minutes),
            snapshots.append,
        )
        simulation.run_until(phases.simulation_end)

        events, pending, times = GOLDEN_EVENTS[(profile, scenario)]
        assert simulation.simulator.events_processed == events
        assert simulation.simulator.pending_events == pending
        assert [snapshot.time for snapshot in snapshots] == times
