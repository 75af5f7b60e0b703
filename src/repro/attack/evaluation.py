"""Empirical validation of the resilience claim (Equation 2).

Given a connectivity graph and an adversary, remove the compromised
vertices and check whether every pair of surviving nodes can still reach
each other.  If the graph's vertex connectivity exceeds the attacker's
budget, Equation 2 guarantees the answer is yes; the evaluation makes that
guarantee testable on concrete snapshots and quantifies how much head-room
a given network has against the different attacker strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.attack.adversary import Adversary
from repro.core.vertex_connectivity import global_vertex_connectivity
from repro.graph.algorithms.components import strongly_connected_components
from repro.graph.digraph import DiGraph

Vertex = Hashable


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack evaluation.

    Attributes
    ----------
    budget:
        The attacker's node budget ``a``.
    strategy:
        Name of the targeting strategy.
    compromised:
        The nodes that were actually compromised.
    survivors:
        Number of nodes left un-compromised.
    connected:
        True if every ordered pair of surviving nodes still has a directed
        path (the surviving subgraph is strongly connected).
    largest_component_fraction:
        Size of the largest strongly connected component of the surviving
        subgraph divided by the number of survivors — 1.0 when ``connected``.
    predicted_safe:
        The prediction of Equation 2 from the pre-attack connectivity:
        ``kappa(D) > budget``.
    """

    budget: int
    strategy: str
    compromised: List[Vertex]
    survivors: int
    connected: bool
    largest_component_fraction: float
    predicted_safe: Optional[bool] = None

    @property
    def prediction_held(self) -> Optional[bool]:
        """Whether Equation 2's prediction matched the observed outcome.

        ``None`` when no prediction was made.  Note the implication is
        one-directional: ``predicted_safe`` guarantees ``connected``, while
        a network predicted unsafe may still survive a particular attack.
        """
        if self.predicted_safe is None:
            return None
        if self.predicted_safe:
            return self.connected
        return True


def _surviving_subgraph(graph: DiGraph, compromised: Sequence[Vertex]) -> DiGraph:
    """Return a copy of ``graph`` with the compromised vertices removed."""
    removed = set(compromised)
    survivor_graph = DiGraph()
    for vertex in graph.vertices():
        if vertex not in removed:
            survivor_graph.add_vertex(vertex)
    for source, target, capacity in graph.edges():
        if source not in removed and target not in removed:
            survivor_graph.add_edge(source, target, capacity=capacity)
    return survivor_graph


def evaluate_attack(
    graph: DiGraph,
    adversary: Adversary,
    pre_attack_connectivity: Optional[int] = None,
) -> AttackOutcome:
    """Run one attack on ``graph`` and report the outcome.

    Parameters
    ----------
    graph:
        The connectivity graph of a snapshot.
    adversary:
        The attacker (budget + strategy).
    pre_attack_connectivity:
        Optionally the already-computed ``kappa(D)``; when given, the
        outcome also records whether Equation 2 predicted survival.
    """
    compromised = adversary.choose_targets(graph)
    survivors_graph = _surviving_subgraph(graph, compromised)
    survivor_count = survivors_graph.number_of_vertices()

    if survivor_count == 0:
        connected = False
        largest_fraction = 0.0
    elif survivor_count == 1:
        connected = True
        largest_fraction = 1.0
    else:
        components = strongly_connected_components(survivors_graph)
        largest = max(len(component) for component in components)
        connected = largest == survivor_count
        largest_fraction = largest / survivor_count

    predicted = (
        None
        if pre_attack_connectivity is None
        else pre_attack_connectivity > adversary.budget
    )
    return AttackOutcome(
        budget=adversary.budget,
        strategy=adversary.strategy_name,
        compromised=list(compromised),
        survivors=survivor_count,
        connected=connected,
        largest_component_fraction=largest_fraction,
        predicted_safe=predicted,
    )


def resilience_curve(
    graph: DiGraph,
    budgets: Sequence[int],
    strategy: str = "random",
    trials: int = 5,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Survival probability as a function of the attacker budget.

    For every budget the attack is repeated ``trials`` times with different
    attacker seeds; the returned rows contain the fraction of trials in
    which the surviving network stayed strongly connected and the mean size
    of the largest surviving component.  The paper's Equation 2 predicts a
    survival probability of 1.0 for every budget strictly below ``kappa(D)``
    regardless of the strategy.
    """
    kappa = global_vertex_connectivity(graph)
    rows: List[Dict[str, float]] = []
    for budget in budgets:
        survived = 0
        fractions = []
        for trial in range(trials):
            adversary = Adversary(budget=budget, strategy=strategy,
                                  seed=seed * 1000 + trial)
            outcome = evaluate_attack(graph, adversary, pre_attack_connectivity=kappa)
            survived += int(outcome.connected)
            fractions.append(outcome.largest_component_fraction)
        rows.append(
            {
                "budget": budget,
                "strategy": strategy,
                "survival_rate": survived / trials,
                "mean_largest_component": sum(fractions) / len(fractions),
                "predicted_safe": kappa > budget,
                "connectivity": kappa,
            }
        )
    return rows
