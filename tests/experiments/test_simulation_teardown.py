"""A simulation holds only what can still act.

Two rules, each guarded here:

* a node that leaves is closed at once — its routing table and data store
  are empty from then on — while every live node keeps its state;
* a finished run, or one that raised, is torn down before
  :meth:`ExperimentRunner.run` returns: no reference cycle of it is left
  for the garbage collector.  Without the teardown a tiny E run with
  k = 10 leaves about a thousand cyclic objects (contacts and their bucket
  dicts; node, protocol, transport and registry; queued callbacks and the
  simulation).

The garbage checks pause the collector and count what one full collection
would free (``gc.DEBUG_SAVEALL`` keeps it in ``gc.garbage``); the
collector's previous state is restored in ``finally``.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import get_scenario
from repro.extensions.hardening import HardeningConfig
from repro.kademlia.protocol import KademliaProtocol


def cyclic_garbage(run) -> Counter:
    """Call ``run()`` with the collector paused; count the cycles it left, by type."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()
    return left


@pytest.mark.parametrize("protocol", ["kademlia", "chord", "pastry"])
def test_a_finished_run_leaves_no_cyclic_garbage(protocol):
    scenario = get_scenario("E").with_overrides(bucket_size=10, protocol=protocol)
    runner = ExperimentRunner(profile="tiny", seed=42)
    assert cyclic_garbage(lambda: runner.run(scenario)) == Counter()


def test_a_hardened_run_leaves_no_cyclic_garbage():
    # Supplemental links and contact rotation: a protocol subclass with
    # state of its own, and maintenance timers per node.
    scenario = get_scenario("E").with_overrides(bucket_size=10)
    hardening = HardeningConfig(rotation_fraction=0.2, supplemental_links=4)
    runner = ExperimentRunner(profile="tiny", seed=42)
    assert cyclic_garbage(lambda: runner.run(scenario, hardening=hardening)) == Counter()


class PlantedFault(RuntimeError):
    """Raised by :class:`RaisingProtocol` at the chosen lookup."""


class RaisingProtocol(KademliaProtocol):
    """Kademlia that raises once the run's shared lookup countdown hits zero."""

    def __init__(self, node_id, config, countdown) -> None:
        super().__init__(node_id, config)
        self.countdown = countdown

    def lookup(self, target_id):
        self.countdown[0] -= 1
        if self.countdown[0] == 0:
            raise PlantedFault("planted fault in a lookup")
        return super().lookup(target_id)


class RaiseAtLookup:
    """Stands in for a :class:`HardeningConfig`: the run builds raising protocols."""

    def __init__(self, lookup_number: int) -> None:
        self.countdown = [lookup_number]

    def protocol_factory(self):
        countdown = self.countdown

        def factory(node_id, config):
            return RaisingProtocol(node_id, config, countdown)

        return factory

    def maintenance_policies(self):
        return []


def test_a_run_that_raises_is_torn_down_too():
    scenario = get_scenario("G").with_overrides(bucket_size=10)
    runner = ExperimentRunner(profile="tiny", seed=42)
    # Lookup 700 of 1037 falls at minute 15.3 of 22, inside the churn phase.
    fault = RaiseAtLookup(700)
    raised = []

    def run() -> None:
        try:
            runner.run(scenario, hardening=fault)
        except PlantedFault:
            raised.append(True)

    assert cyclic_garbage(run) == Counter()
    assert raised == [True] and fault.countdown[0] == 0


@pytest.mark.parametrize("overlay", ["kademlia", "chord", "pastry"])
def test_departed_nodes_are_closed_and_live_ones_are_not(overlay):
    scenario = get_scenario("G").with_overrides(bucket_size=10, protocol=overlay)
    runner = ExperimentRunner(profile="tiny", seed=42)
    simulation = runner.build_simulation(scenario)
    profile = runner.profile
    phases = runner.phase_schedule(scenario)
    seen = {"snapshots": 0, "dead": 0, "stored_live": 0}

    def check(snapshot) -> None:
        seen["snapshots"] += 1
        for node in simulation.network:
            protocol = node.protocol(simulation.protocol_name)
            if node.alive:
                assert protocol.routing_table_snapshot(), f"live {node.node_id:#x} emptied"
                seen["stored_live"] += len(protocol.storage)
            else:
                seen["dead"] += 1
                assert protocol.routing_table_snapshot() == []
                assert len(protocol.storage) == 0

    simulation.schedule_setup(
        profile.network_size(scenario.size_class), profile.setup_minutes
    )
    simulation.schedule_traffic(1.0, phases.simulation_end)
    simulation.schedule_churn(phases.stabilization_end, phases.simulation_end)
    simulation.schedule_snapshots(
        phases.snapshot_times(profile.snapshot_interval_minutes), check
    )
    simulation.run_until(phases.simulation_end)
    # Not vacuous: departed nodes were inspected, live nodes held data.
    assert seen["snapshots"] >= 3 and seen["dead"] > 0 and seen["stored_live"] > 0

    events = simulation.simulator.events_processed
    protocols = [node.protocol(simulation.protocol_name) for node in simulation.network]
    simulation.close()
    assert simulation.simulator.pending_events == 0
    assert len(simulation.network) == 0
    assert simulation.simulator.events_processed == events
    assert all(p.routing_table_snapshot() == [] for p in protocols)
    assert all(len(p.storage) == 0 for p in protocols)


def test_a_closed_kademlia_table_is_empty_throughout():
    # Buckets, flat index and contact cache: a stale cache would keep
    # answering FIND_NODE with the old contacts.
    scenario = get_scenario("E").with_overrides(bucket_size=10)
    simulation = ExperimentRunner(profile="tiny", seed=42).build_simulation(scenario)
    simulation.schedule_setup(8, 2.0)
    simulation.run_until(3.0)
    protocol = simulation.alive_protocols()[-1]
    table = protocol.routing_table
    assert table.contact_count() > 0 and table.closest_contacts(0)
    version = table.membership_version
    protocol.close()
    assert table.contact_count() == 0 and table.buckets() == []
    assert table.contact_ids() == [] and table.closest_contacts(0) == []
    assert table.membership_version == version + 1
    protocol.close()
    assert table.membership_version == version + 1
    simulation.close()
