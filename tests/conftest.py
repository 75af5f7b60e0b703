"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.experiments.profiles import get_profile
from repro.experiments.runner import ExperimentRunner
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    bidirectional_cycle,
    circulant_graph,
    complete_graph,
    figure1_example_graph,
)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random stream for tests."""
    return random.Random(12345)


@pytest.fixture
def diamond_graph() -> DiGraph:
    """A 4-vertex diamond: two vertex-disjoint paths from ``s`` to ``t``."""
    graph = DiGraph()
    for edge in [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]:
        graph.add_edge(*edge)
    return graph


@pytest.fixture
def figure1_graph() -> DiGraph:
    """The paper's Figure 1 example (max flow 3, vertex connectivity 1)."""
    return figure1_example_graph()


@pytest.fixture
def k4() -> DiGraph:
    """The complete directed graph on 4 vertices."""
    return complete_graph(4)


@pytest.fixture
def ring10() -> DiGraph:
    """A bidirectional 10-cycle (vertex connectivity 2)."""
    return bidirectional_cycle(10)


@pytest.fixture
def circulant12() -> DiGraph:
    """Circulant graph C_12(1, 2): vertex connectivity 4."""
    return circulant_graph(12, [1, 2])


@pytest.fixture
def tiny_runner() -> ExperimentRunner:
    """An experiment runner on the test-sized profile."""
    return ExperimentRunner(profile=get_profile("tiny"), seed=7)


@pytest.fixture
def obs_enabled():
    """Enable observability for one test and fully tear it down after."""
    obs.disable()
    registry = obs.enable()
    yield registry
    obs.disable()
