"""The protocol dimension threaded through the experiment stack.

Covers the refactor's cross-layer contracts:

* the task **fingerprint** treats the protocol as identity-bearing
  (kademlia/chord/pastry tasks have distinct cache keys) while keeping
  the Kademlia encoding legacy-stable (no ``protocol`` key — committed
  cache entries stay valid);
* result **persistence** round-trips the protocol, again omitting it on
  the Kademlia path;
* the **runner** builds the right protocol per scenario and rejects the
  Kademlia-only hardening extensions for other overlays;
* a **sweep** runs end-to-end per protocol, producing the same
  minimum/average-connectivity series shape the paper's pipeline emits
  for Kademlia (the cross-protocol resilience table of the README);
* the **CLI** accepts ``--protocol`` wherever a scenario is run.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import Scenario, get_scenario
from repro.experiments.sweep import run_bucket_size_sweep
from repro.kademlia.protocol import KademliaProtocol
from repro.overlay import overlay_names
from repro.overlay.chord import ChordProtocol
from repro.overlay.pastry import PastryProtocol
from repro.runtime.task import ExperimentTask

PROTOCOL_CLASSES = {
    "kademlia": KademliaProtocol,
    "chord": ChordProtocol,
    "pastry": PastryProtocol,
}


def scenario_for(protocol: str) -> Scenario:
    base = get_scenario("A")
    if protocol == "kademlia":
        return base
    return base.with_overrides(protocol=protocol)


class TestScenarioProtocolDimension:
    def test_registry_scenarios_default_to_kademlia(self):
        assert get_scenario("E").protocol == "kademlia"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_scenario("E").with_overrides(protocol="gnutella")

    def test_label_suffix_only_for_non_kademlia(self):
        # The label feeds the connectivity series and through it the
        # pinned Kademlia digests — it must not move for kademlia.
        assert "protocol" not in get_scenario("E").label()
        chord = get_scenario("E").with_overrides(protocol="chord")
        assert chord.label().endswith("protocol=chord")


class TestFingerprintIdentity:
    def test_protocol_is_identity_bearing(self):
        keys = {
            protocol: ExperimentTask.create(
                scenario=scenario_for(protocol), profile="tiny", seed=42
            ).key()
            for protocol in overlay_names()
        }
        assert len(set(keys.values())) == len(keys), (
            f"protocol must distinguish task fingerprints, got {keys}"
        )

    def test_kademlia_fingerprint_is_legacy_stable(self):
        # Committed cache entries predate the protocol dimension; the
        # kademlia fingerprint must keep encoding without the key.
        task = ExperimentTask.create(
            scenario=get_scenario("A"), profile="tiny", seed=42
        )
        assert "protocol" not in task.fingerprint()["scenario"]

    def test_non_kademlia_fingerprint_carries_protocol(self):
        task = ExperimentTask.create(
            scenario=scenario_for("pastry"), profile="tiny", seed=42
        )
        assert task.fingerprint()["scenario"]["protocol"] == "pastry"


class TestRunnerProtocolSelection:
    @pytest.mark.parametrize("protocol", overlay_names())
    def test_build_simulation_instantiates_the_right_protocol(self, protocol):
        runner = ExperimentRunner(profile="tiny", seed=1)
        simulation = runner.build_simulation(scenario_for(protocol))
        assert simulation.protocol_name == protocol
        simulation.schedule_setup(4, setup_duration=1.0)
        simulation.run_until(1.0)
        protocols = simulation.alive_protocols()
        assert protocols
        assert all(
            isinstance(p, PROTOCOL_CLASSES[protocol]) for p in protocols
        )

    def test_hardening_is_kademlia_only(self):
        from repro.extensions.hardening import HardeningConfig

        runner = ExperimentRunner(profile="tiny", seed=1)
        hardening = HardeningConfig(supplemental_links=2)
        # Fine for kademlia...
        runner.build_simulation(get_scenario("A"), hardening=hardening)
        # ...rejected for the other overlays.
        with pytest.raises(ValueError, match="Kademlia-specific"):
            runner.build_simulation(scenario_for("chord"), hardening=hardening)


class TestPersistenceRoundTrip:
    def _run(self, protocol):
        runner = ExperimentRunner(profile="tiny", seed=7, keep_snapshots=True)
        return runner.run(scenario_for(protocol))

    def test_kademlia_document_is_legacy_stable(self):
        document = result_to_dict(self._run("kademlia"))
        assert "protocol" not in document["scenario"]
        restored = result_from_dict(document)
        assert restored.scenario.protocol == "kademlia"

    @pytest.mark.parametrize("protocol", ["chord", "pastry"])
    def test_protocol_round_trips(self, protocol):
        result = self._run(protocol)
        document = result_to_dict(result, include_snapshots=True)
        assert document["scenario"]["protocol"] == protocol
        restored = result_from_dict(document)
        assert restored.scenario.protocol == protocol


    @pytest.mark.parametrize("protocol", ["kademlia", "chord"])
    def test_snapshot_documents_are_the_decoded_json(self, protocol):
        # result_to_dict builds each snapshot's document directly; it must
        # be what a JSON text round trip of the snapshot gives.
        result = self._run(protocol)
        document = result_to_dict(result, include_snapshots=True)
        assert result.snapshots
        assert document["snapshots"] == [
            json.loads(snapshot.to_json()) for snapshot in result.snapshots
        ]


class TestCrossProtocolSweep:
    @pytest.mark.parametrize("protocol", ["chord", "pastry"])
    def test_sweep_k_runs_end_to_end(self, protocol):
        # The acceptance run: a k-sweep per overlay through the unchanged
        # churn/attack pipeline, yielding min/avg connectivity series.
        results = run_bucket_size_sweep(
            get_scenario("A").with_overrides(protocol=protocol),
            bucket_sizes=[4, 8],
            profile="tiny",
            seed=42,
        )
        assert sorted(results) == [4, 8]
        for k, result in results.items():
            assert result.scenario.protocol == protocol
            assert result.scenario.bucket_size == k
            samples = result.series.samples
            assert samples
            for sample in samples:
                assert sample.report.minimum >= 0
                assert sample.report.average >= sample.report.minimum


class TestCliProtocolOption:
    def test_protocol_parsed_on_run_and_sweep(self):
        parser = build_parser()
        assert parser.parse_args(["run", "E"]).protocol == "kademlia"
        args = parser.parse_args(["run", "E", "--protocol", "chord"])
        assert args.protocol == "chord"
        args = parser.parse_args(
            ["sweep-k", "--scenario", "A", "--protocol", "pastry"]
        )
        assert args.protocol == "pastry"
        args = parser.parse_args(["table2", "--protocol", "chord"])
        assert args.protocol == "chord"
        args = parser.parse_args(["obs", "summary", "E", "--protocol", "pastry"])
        assert args.protocol == "pastry"

    def test_unknown_protocol_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E", "--protocol", "gnutella"])
        capsys.readouterr()

    def test_run_chord_tiny_end_to_end(self, capsys):
        exit_code = main(
            ["run", "A", "--profile", "tiny", "--seed", "1",
             "--protocol", "chord"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "protocol=chord" in output
