"""Tests for the OverlaySimulation orchestration layer."""

from repro.churn.churn_model import get_churn_scenario
from repro.churn.loss import get_loss_model
from repro.churn.traffic import TrafficModel
from repro.experiments.simulation import OverlaySimulation
from repro.kademlia.config import KademliaConfig
from repro.simulator.random_source import RandomSource


def make_simulation(churn="none", loss="none", traffic_enabled=True, seed=0,
                    k=4, bit_length=32):
    config = KademliaConfig(bit_length=bit_length, bucket_size=k, alpha=2,
                            staleness_limit=1, refresh_interval_minutes=5.0)
    traffic = (TrafficModel(enabled=True, lookups_per_node_per_minute=2,
                            disseminations_per_node_per_minute=0.2)
               if traffic_enabled else TrafficModel.disabled())
    return OverlaySimulation(
        config=config,
        loss=get_loss_model(loss),
        traffic=traffic,
        churn=get_churn_scenario(churn),
        random_source=RandomSource(seed),
    )


class TestNodeLifecycle:
    def test_join_new_node_adds_alive_node(self):
        sim = make_simulation()
        first = sim.join_new_node()
        second = sim.join_new_node()
        assert sim.network.alive_count() == 2
        assert sim.joins == 2
        # The second node bootstrapped from the first.
        assert second.routing_table.contains(first.node_id)

    def test_remove_random_node(self):
        sim = make_simulation()
        sim.join_new_node()
        sim.join_new_node()
        removed = sim.remove_random_node()
        assert removed is not None
        assert sim.network.alive_count() == 1
        assert sim.leaves == 1

    def test_remove_from_empty_network(self):
        sim = make_simulation()
        assert sim.remove_random_node() is None

    def test_node_ids_unique(self):
        sim = make_simulation(bit_length=8)
        ids = {sim.join_new_node().node_id for _ in range(30)}
        assert len(ids) == 30


class TestScheduling:
    def test_setup_populates_network(self):
        sim = make_simulation(traffic_enabled=False)
        sim.schedule_setup(12, setup_duration=5.0)
        sim.run_until(5.0)
        assert sim.network.alive_count() == 12

    def test_traffic_generates_lookups(self):
        sim = make_simulation()
        sim.schedule_setup(6, setup_duration=2.0)
        sim.schedule_traffic(1.0, 8.0)
        sim.run_until(8.0)
        total_lookups = sum(p.lookups_performed for p in sim.alive_protocols())
        assert total_lookups > 0
        assert sim.transport.stats.requests_sent > 0

    def test_no_traffic_when_disabled(self):
        sim = make_simulation(traffic_enabled=False)
        sim.schedule_setup(6, setup_duration=2.0)
        sim.schedule_traffic(1.0, 8.0)
        sim.run_until(4.9)  # before the first bucket refresh at 5.0+
        lookups = sum(p.lookups_performed for p in sim.alive_protocols())
        # Only the join lookups happened (one per node), no traffic lookups.
        assert lookups == 6

    def test_churn_changes_membership(self):
        sim = make_simulation(churn="1/1", traffic_enabled=False)
        sim.schedule_setup(10, setup_duration=2.0)
        sim.schedule_churn(3.0, 10.0)
        sim.run_until(10.0)
        assert sim.joins > 10  # churn joins happened
        assert sim.leaves > 0
        assert sim.network.alive_count() == 10  # 1/1 keeps the size constant

    def test_zero_one_churn_shrinks_network(self):
        sim = make_simulation(churn="0/1", traffic_enabled=False)
        sim.schedule_setup(10, setup_duration=2.0)
        sim.schedule_churn(3.0, 8.0)
        sim.run_until(9.0)
        assert sim.network.alive_count() < 10

    def test_refresh_happens_for_alive_nodes(self):
        sim = make_simulation(traffic_enabled=False)
        sim.schedule_setup(5, setup_duration=1.0)
        sim.run_until(12.0)  # refresh interval is 5 minutes
        refreshes = sum(p.refreshes_performed for p in sim.alive_protocols())
        assert refreshes >= 5

    def test_snapshots_capture_alive_tables(self):
        sim = make_simulation(traffic_enabled=False)
        sim.schedule_setup(8, setup_duration=2.0)
        captured = []
        sim.schedule_snapshots([3.0, 6.0], captured.append)
        sim.run_until(6.0)
        assert [snap.time for snap in captured] == [3.0, 6.0]
        assert captured[0].network_size == 8
        assert sim.snapshots_taken == 2

    def test_determinism_for_same_seed(self):
        def run(seed):
            sim = make_simulation(churn="1/1", seed=seed)
            sim.schedule_setup(8, setup_duration=2.0)
            sim.schedule_traffic(1.0, 6.0)
            sim.schedule_churn(3.0, 6.0)
            sim.run_until(6.0)
            return sim.take_snapshot().routing_tables

        assert run(5) == run(5)
        assert run(5) != run(6)
