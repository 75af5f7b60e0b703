"""Study harnesses for the extension mechanisms.

Two studies are provided:

``disjoint_path_study``
    Builds a static Kademlia testbed, compromises a fraction of the nodes
    with the eclipse adversary
    (:class:`~repro.extensions.adversarial.MaliciousKademliaProtocol`) and
    measures how often lookups reach an honest node close to the target as
    the number of node-disjoint lookup paths grows.  This closes the loop
    between the connectivity the paper measures and the lookup resilience
    S/Kademlia [1] derives from it.

``hardening_study``
    Runs one experiment scenario once per :class:`HardeningConfig` and
    reports the connectivity statistics side by side, so the rotation and
    supplemental-links mechanisms can be compared against plain Kademlia
    (and against the "use message loss as a feature" non-solution).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.extensions.adversarial import MaliciousKademliaProtocol
from repro.extensions.disjoint_lookup import disjoint_find_node
from repro.extensions.hardening import HardeningConfig
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import Scenario
from repro.kademlia.config import KademliaConfig
from repro.kademlia.node_id import generate_node_id, sort_by_distance
from repro.kademlia.protocol import KademliaProtocol
from repro.simulator.network import Network
from repro.simulator.node import SimNode
from repro.simulator.transport import Transport


# ----------------------------------------------------------------------
# Static testbed
# ----------------------------------------------------------------------
@dataclass
class StaticTestbed:
    """A fully joined Kademlia network outside the event-driven simulator.

    The testbed trades the simulator's notion of time for speed: joins and
    seeding lookups all happen "instantly", which is sufficient for studies
    that only depend on the final routing-table state.
    """

    network: Network
    transport: Transport
    protocols: Dict[int, KademliaProtocol]
    config: KademliaConfig
    compromised: List[int]

    @property
    def honest_ids(self) -> List[int]:
        """Identifiers of the nodes that are not compromised."""
        compromised = set(self.compromised)
        return [node_id for node_id in self.protocols if node_id not in compromised]

    def closest_honest(self, target_id: int, count: int) -> List[int]:
        """The ``count`` honest nodes closest to ``target_id`` (ground truth)."""
        return sort_by_distance(self.honest_ids, target_id)[:count]


def build_static_testbed(
    node_count: int,
    config: Optional[KademliaConfig] = None,
    compromised_count: int = 0,
    seed: int = 0,
    seeding_lookups_per_node: int = 2,
) -> StaticTestbed:
    """Build a joined network in which ``compromised_count`` nodes are malicious.

    The network is built while every node still behaves honestly (the
    adversary only starts poisoning responses once activated below), so the
    routing tables reflect a normally bootstrapped network that an attacker
    subsequently compromises — the paper's system model.
    """
    if node_count <= 1:
        raise ValueError(f"node_count must be at least 2, got {node_count}")
    if not 0 <= compromised_count < node_count:
        raise ValueError(
            "compromised_count must be non-negative and smaller than node_count"
        )
    config = config or KademliaConfig(bit_length=32, bucket_size=8, alpha=3,
                                      staleness_limit=1)
    rng = random.Random(seed)
    network = Network()
    transport = Transport(network, loss_probability=0.0, rng=random.Random(seed + 1))

    node_ids: List[int] = []
    used: set = set()
    for _ in range(node_count):
        node_id = generate_node_id(config.bit_length, rng, exclude=used)
        used.add(node_id)
        node_ids.append(node_id)
    compromised = rng.sample(node_ids, compromised_count) if compromised_count else []
    compromised_set = set(compromised)

    protocols: Dict[int, KademliaProtocol] = {}
    for node_id in node_ids:
        if node_id in compromised_set:
            protocol: KademliaProtocol = MaliciousKademliaProtocol(
                node_id, config, accomplices=compromised_set
            )
            protocol.active = False  # behave honestly while the network forms
        else:
            protocol = KademliaProtocol(node_id, config)
        node = SimNode(node_id)
        protocol.bind(transport, lambda: 0.0)
        node.register_protocol(KademliaProtocol.protocol_name, protocol)
        network.add_node(node)
        protocols[node_id] = protocol

    # Joins: every node bootstraps from a uniformly random earlier node.
    for index, node_id in enumerate(node_ids):
        bootstrap = rng.choice(node_ids[:index]) if index else None
        protocols[node_id].join(bootstrap)
    # Seeding traffic so routing tables are representative of a live network.
    for node_id in node_ids:
        for _ in range(seeding_lookups_per_node):
            protocols[node_id].lookup(rng.randrange(config.id_space_size))

    return StaticTestbed(
        network=network,
        transport=transport,
        protocols=protocols,
        config=config,
        compromised=list(compromised),
    )


# ----------------------------------------------------------------------
# Disjoint-path lookup study
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DisjointPathStudyRow:
    """Success statistics for one number of disjoint paths."""

    path_count: int
    lookups: int
    owner_hits: int
    replica_hits: int
    mean_queried: float

    @property
    def owner_hit_rate(self) -> float:
        """Fraction of lookups that reached the honest node closest to the target."""
        return self.owner_hits / self.lookups if self.lookups else 0.0

    @property
    def replica_hit_rate(self) -> float:
        """Fraction of lookups that reached any of the ``k`` closest honest nodes."""
        return self.replica_hits / self.lookups if self.lookups else 0.0


#: Default protocol parameters of the disjoint-path study.  The network must
#: be much larger than what one routing table can hold, otherwise initiators
#: already know the target region and poisoned referrals are irrelevant.
DISJOINT_STUDY_CONFIG = KademliaConfig(
    bit_length=32, bucket_size=4, alpha=2, staleness_limit=1
)


def disjoint_path_study(
    node_count: int = 300,
    compromised_fraction: float = 0.25,
    path_counts: Sequence[int] = (1, 2, 3, 4),
    lookups: int = 40,
    seed: int = 0,
    config: Optional[KademliaConfig] = None,
) -> List[DisjointPathStudyRow]:
    """Measure lookup success against the eclipse adversary vs. path count.

    Two success criteria are reported per path count: reaching the single
    honest node closest to the target ("owner") and reaching any of the
    ``k`` closest honest nodes ("replica" — the condition under which a
    store or retrieval reaches a legitimate replica holder).
    """
    if not 0.0 <= compromised_fraction < 1.0:
        raise ValueError(
            f"compromised_fraction must be in [0, 1), got {compromised_fraction}"
        )
    config = config or DISJOINT_STUDY_CONFIG
    compromised_count = int(round(node_count * compromised_fraction))
    testbed = build_static_testbed(
        node_count,
        config=config,
        compromised_count=compromised_count,
        seed=seed,
        seeding_lookups_per_node=1,
    )
    # Activate the adversary only after the network has formed.
    for node_id in testbed.compromised:
        testbed.protocols[node_id].active = True

    rng = random.Random(seed + 7)
    honest = testbed.honest_ids
    rows: List[DisjointPathStudyRow] = []
    targets = [rng.randrange(testbed.config.id_space_size) for _ in range(lookups)]
    initiators = [rng.choice(honest) for _ in range(lookups)]

    for path_count in path_counts:
        owner_hits = 0
        replica_hits = 0
        queried_total = 0
        for target, initiator in zip(targets, initiators):
            result = disjoint_find_node(
                testbed.protocols[initiator], target, path_count=path_count
            )
            queried_total += result.queried
            if result.reached(testbed.closest_honest(target, 1)):
                owner_hits += 1
            if result.reached(testbed.closest_honest(target, config.bucket_size)):
                replica_hits += 1
        rows.append(
            DisjointPathStudyRow(
                path_count=path_count,
                lookups=lookups,
                owner_hits=owner_hits,
                replica_hits=replica_hits,
                mean_queried=queried_total / lookups if lookups else 0.0,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Hardening study
# ----------------------------------------------------------------------
def hardening_study(
    scenario: Scenario,
    configs: Mapping[str, HardeningConfig],
    profile: str = "tiny",
    seed: int = 42,
) -> Dict[str, ExperimentResult]:
    """Run ``scenario`` once per hardening configuration and collect results."""
    runner = ExperimentRunner(profile=profile, seed=seed)
    return {
        name: runner.run(scenario, hardening=config)
        for name, config in configs.items()
    }


def hardening_summary(results: Mapping[str, ExperimentResult]) -> List[Dict[str, float]]:
    """Flatten a hardening study into report rows (one per configuration)."""
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "configuration": name,
                "stabilized_min": result.stabilized_minimum(),
                "churn_mean_min": round(result.churn_mean_minimum(), 2),
                "churn_mean_avg": round(result.churn_mean_average(), 2),
                "final_network_size": result.final_network_size(),
            }
        )
    return rows
