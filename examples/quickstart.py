#!/usr/bin/env python3
"""Quickstart: simulate a Kademlia network and measure its connection resilience.

This walks through the paper's whole pipeline in one short script:

1. build a Kademlia network with the event-driven simulator,
2. snapshot the routing tables,
3. turn the snapshot into a connectivity graph (Section 4.2),
4. compute the minimum/average vertex connectivity via Even's
   transformation and max flow (Sections 4.3-4.4),
5. translate the connectivity into a resilience statement (Section 4.5).

Run with:  python examples/quickstart.py
"""

from repro.api import (
    KademliaConfig,
    OverlaySimulation,
    RandomSource,
    ResilienceModel,
    TrafficModel,
    analyze_snapshot,
    estimate_connectivity,
    get_churn_scenario,
    get_loss_model,
    vertex_disjoint_paths,
)


def main() -> None:
    # 1. Configure a small Kademlia network: k=8 contacts per bucket,
    #    lookups with parallelism 3, contacts dropped after 1 failed RPC.
    config = KademliaConfig(bucket_size=8, alpha=3, staleness_limit=1,
                            refresh_interval_minutes=15.0)
    simulation = OverlaySimulation(
        config=config,
        loss=get_loss_model("none"),
        traffic=TrafficModel(enabled=True, lookups_per_node_per_minute=4,
                             disseminations_per_node_per_minute=0.5),
        churn=get_churn_scenario("none"),
        random_source=RandomSource(seed=2024),
    )

    # 2. 30 nodes join during the first 10 simulated minutes, then the
    #    network runs with data traffic until minute 40.
    simulation.schedule_setup(node_count=30, setup_duration=10.0)
    simulation.schedule_traffic(start=1.0, end=40.0)
    simulation.run_until(40.0)
    snapshot = simulation.take_snapshot()
    print(f"network size:            {snapshot.network_size}")
    print(f"routing table entries:   {snapshot.total_contacts()}")

    # 3 + 4. Connectivity graph and vertex connectivity (exact mode: the
    #    graph is small enough for all pairs).
    report = analyze_snapshot(snapshot)
    print(f"minimum connectivity:    {report.min_connectivity}")
    print(f"average connectivity:    {report.avg_connectivity:.1f}")
    print(f"graph almost undirected: symmetry ratio {report.symmetry_ratio:.2f}")

    # At deployment scale (10^4+ nodes) exact mode is infeasible; the
    # estimator reports the same quantities from a sampled pair budget,
    # with a confidence interval for the average.
    estimate = estimate_connectivity(snapshot, sample_pairs=64, seed=1)
    low, high = estimate.confidence_interval
    print(f"estimated average:       {estimate.avg_connectivity:.1f} "
          f"(95% CI [{low:.1f}, {high:.1f}], "
          f"{estimate.pairs_sampled} pairs sampled)")

    # 5. Resilience (Equation 2: kappa(D) > r >= a).
    print(f"resilience r:            {report.resilience} "
          f"(tolerates {report.resilience} compromised nodes)")
    attacker = ResilienceModel(attacker_budget=3)
    verdict = (
        "tolerates"
        if attacker.is_satisfied_by(report.min_connectivity)
        else "does NOT tolerate"
    )
    print(f"attacker with budget 3:  network {verdict} the attack")

    # Bonus: show concrete node-disjoint paths between two nodes.
    graph = snapshot.to_connectivity_graph()
    nodes = graph.vertices()
    source, target = nodes[0], nodes[-1]
    if not graph.has_edge(source, target):
        paths = vertex_disjoint_paths(graph, source, target)
        print(f"node-disjoint paths between {source:#x} and {target:#x}: {len(paths)}")


if __name__ == "__main__":
    main()
