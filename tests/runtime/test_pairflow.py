"""Tests for the batched parallel pair-flow engine.

The two load-bearing guarantees:

1. the engine matches the serial per-pair oracle
   (:func:`pairwise_vertex_connectivity`) pair by pair, and
2. its statistics are bit-identical for any worker count, because the
   shard/wave structure is a function of the engine parameters only.
"""

import multiprocessing
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import ConnectivityAnalyzer
from repro.core.vertex_connectivity import (
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
    pairwise_vertex_connectivity,
    sample_non_adjacent_pairs,
)
from repro.experiments.runner import ExperimentRunner
from repro.graph.digraph import DiGraph
from repro.graph.generators import circulant_graph, random_regular_out_digraph
from repro.graph.maxflow.residual import KERNEL_COUNTERS
from repro.runtime.executor import ParallelExecutor, make_executor
from repro.runtime import pairflow
from repro.runtime.pairflow import PairFlowEngine, PairFlowShard, _run_shard_on


@contextmanager
def engine_grain(shard_size, wave_width):
    """Shrink the engine's shards and waves inside the block, so that
    small batches still span several waves."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairflow, "SHARD_SIZE", shard_size)
        patch.setattr(pairflow, "WAVE_WIDTH", wave_width)
        yield


@contextmanager
def pool_session(jobs):
    """A ``jobs``-worker session the engines under test borrow."""
    session = make_executor(jobs).open_session()
    try:
        yield session
    finally:
        session.close()


def make_random_graph(n: int, density: float, seed: int) -> DiGraph:
    rng = random.Random(seed)
    graph = DiGraph()
    graph.add_vertices(range(n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                graph.add_edge(i, j)
    return graph


def non_adjacent_pairs(graph):
    return [
        (v, w)
        for v in graph.vertices()
        for w in graph.vertices()
        if v != w and not graph.has_edge(v, w)
    ]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    density = draw(st.floats(min_value=0.2, max_value=0.8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return make_random_graph(n, density, seed)


class TestEngineMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(small_graphs())
    def test_values_match_pairwise_oracle(self, graph):
        """Engine values (no cutoff) equal the per-pair serial oracle."""
        pairs = non_adjacent_pairs(graph)
        if not pairs:
            return
        with engine_grain(3, 2):
            outcome = PairFlowEngine(graph).evaluate(pairs)
        expected = [pairwise_vertex_connectivity(graph, v, w) for v, w in pairs]
        assert outcome.values == expected
        assert outcome.pairs_evaluated == len(pairs)
        assert outcome.minimum == min(expected)
        assert outcome.total == sum(expected)

    @settings(max_examples=25, deadline=None)
    @given(small_graphs())
    def test_minimum_over_exact_despite_cutoffs(self, graph):
        """Sharded inherited cutoffs never change the reported minimum."""
        pairs = non_adjacent_pairs(graph)
        if not pairs:
            return
        sources = graph.vertices()
        targets = graph.vertices()
        with engine_grain(2, 2):
            minimum, evaluated = PairFlowEngine(graph).minimum_over(
                sources, targets
            )
        expected = min(
            pairwise_vertex_connectivity(graph, v, w) for v, w in pairs
        )
        assert minimum == expected
        assert 0 < evaluated <= len(pairs)

    @pytest.mark.parametrize("algorithm", ["dinic", "edmonds_karp", "push_relabel"])
    def test_algorithms_interchangeable(self, algorithm):
        graph = circulant_graph(12, [1, 2])
        pairs = non_adjacent_pairs(graph)[:20]
        outcome = PairFlowEngine(graph, algorithm=algorithm).evaluate(pairs)
        reference = PairFlowEngine(graph).evaluate(pairs)
        assert outcome.values == reference.values

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            PairFlowEngine(circulant_graph(6, [1]), algorithm="magic")

    def test_empty_pair_batch(self):
        outcome = PairFlowEngine(circulant_graph(6, [1])).evaluate([])
        assert outcome.pairs_evaluated == 0
        assert outcome.minimum is None and outcome.min_pair is None


class TestSerialParallelEquivalence:
    def test_evaluate_bit_identical_across_worker_counts(self):
        graph = random_regular_out_digraph(60, 4, random.Random(3))
        pairs = sample_non_adjacent_pairs(graph, 40, random.Random(5))
        serial = PairFlowEngine(graph).evaluate(pairs)
        with pool_session(3) as session:
            parallel = PairFlowEngine(graph, session=session).evaluate(pairs)
        assert serial == parallel

    def test_minimum_pass_bit_identical_across_worker_counts(self):
        graph = random_regular_out_digraph(60, 4, random.Random(11))
        sources = lowest_out_degree_vertices(graph, 8)
        targets = lowest_in_degree_vertices(graph, 8)
        bound = min(graph.min_out_degree(), graph.min_in_degree())
        serial = PairFlowEngine(graph).minimum_over(
            sources, targets, initial_minimum=bound
        )
        with pool_session(3) as session:
            parallel = PairFlowEngine(graph, session=session).minimum_over(
                sources, targets, initial_minimum=bound
            )
        assert serial == parallel

    def test_stop_at_zero_deterministic(self):
        # Two disconnected components: many pairs have kappa 0; the wave
        # early exit must truncate identically for any worker count.
        graph = DiGraph.from_edges(
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4)]
        )
        pairs = non_adjacent_pairs(graph)
        with pool_session(2) as session, engine_grain(2, 2):
            outcomes = [
                PairFlowEngine(graph, session=borrowed).evaluate(
                    pairs, use_cutoff=True, stop_at_zero=True
                )
                for borrowed in (None, session)
            ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].minimum == 0
        assert outcomes[0].pairs_evaluated < len(pairs)


class TestEngineMatchesPerPairOracle:
    def test_average_pass_matches_oracle(self):
        graph = circulant_graph(16, [1, 2, 3])
        pairs = sample_non_adjacent_pairs(graph, 30, random.Random(2))
        expected = [pairwise_vertex_connectivity(graph, v, w) for v, w in pairs]
        average, evaluated = PairFlowEngine(graph).average_over(pairs)
        assert evaluated == len(pairs)
        assert average == pytest.approx(sum(expected) / len(expected))

    def test_minimum_over_matches_oracle_minimum(self):
        graph = random_regular_out_digraph(40, 4, random.Random(17))
        sources = lowest_out_degree_vertices(graph, 6)
        targets = lowest_in_degree_vertices(graph, 6)
        bound = min(graph.min_out_degree(), graph.min_in_degree())
        oracle_min = min(
            [bound]
            + [
                pairwise_vertex_connectivity(graph, s, t)
                for s in sources
                for t in targets
                if s != t and not graph.has_edge(s, t)
            ]
        )
        engine_min, _ = PairFlowEngine(graph).minimum_over(
            sources, targets, initial_minimum=bound
        )
        assert engine_min == oracle_min


def carved_bottleneck_graph() -> DiGraph:
    """Symmetric closure of a random regular digraph plus one weak vertex.

    The weak vertex keeps two in- and two out-edges, so the minimum sits
    below the regular degree: the regime where degree-bound seeding and
    sharded cutoffs decide which flows run at all.
    """
    base = random_regular_out_digraph(200, 5, random.Random(99))
    graph = DiGraph()
    for u, v, _ in base.edges():
        graph.add_edge(u, v)
        graph.add_edge(v, u)
    weak = graph.vertices()[0]
    for target in graph.successors(weak)[2:]:
        graph.remove_edge(weak, target)
    for source in graph.predecessors(weak)[2:]:
        graph.remove_edge(source, weak)
    return graph


class TestCarvedBottleneck:
    def test_four_engine_passes_agree_with_the_oracle(self):
        graph = carved_bottleneck_graph()
        sources = lowest_out_degree_vertices(graph, 16)
        targets = lowest_in_degree_vertices(graph, 16)
        bound = min(graph.min_out_degree(), graph.min_in_degree())
        pairs = [
            (source, target)
            for source in sources
            for target in targets
            if target != source and not graph.has_edge(source, target)
        ]
        per_pair = min(
            pairwise_vertex_connectivity(graph, s, t) for s, t in pairs
        )
        serial = PairFlowEngine(graph)
        with pool_session(4) as session:
            parallel = PairFlowEngine(graph, session=session)
            minimum_passes = [
                engine.minimum_over(sources, targets, initial_minimum=bound)[0]
                for engine in (serial, parallel)
            ]
            exact_passes = [
                engine.evaluate(pairs).minimum for engine in (serial, parallel)
            ]
        assert per_pair == 2
        assert [*minimum_passes, *exact_passes] == [per_pair] * 4


class TestShardSemantics:
    def test_shard_stops_locally_at_zero(self):
        graph = DiGraph.from_edges([(1, 2), (2, 1), (3, 4), (4, 3)])
        engine = PairFlowEngine(graph)
        endpoints = engine.transform.flow_endpoint_indices
        # (1 -> 3) has no path: kappa 0; the shard must stop there.
        shard = PairFlowShard(
            pairs=(endpoints(1, 3), endpoints(2, 1), endpoints(1, 4)),
            cutoff=None,
            use_cutoff=True,
            stop_at_zero=True,
        )
        values = _run_shard_on(
            engine.transform.network, engine._flow_fn, shard
        )
        assert values == [0]

    def test_concurrently_open_serial_engines_stay_independent(self):
        # In-process engines must not share process-global worker state:
        # two engines open at the same time evaluate their own graphs.
        sparse = circulant_graph(10, [1])       # kappa 2
        dense = circulant_graph(10, [1, 2, 3])  # kappa 6
        with PairFlowEngine(sparse) as a, PairFlowEngine(dense) as b:
            assert a.evaluate([(0, 5)]).values == [2]
            assert b.evaluate([(0, 5)]).values == [6]
            assert a.evaluate([(0, 5)]).values == [2]

    def test_min_pair_is_first_canonical_minimum(self):
        graph = DiGraph.from_edges([(1, 2), (2, 3), (3, 1)])
        graph.add_vertex(4)  # isolated: kappa(*, 4) = 0
        pairs = [(1, 3), (1, 4), (2, 4)]
        outcome = PairFlowEngine(graph).evaluate(pairs)
        assert outcome.minimum == 0
        assert outcome.min_pair == (1, 4)


class TestAnalyzerEquivalence:
    """Acceptance: parallel analyzer reports are bit-identical to serial
    on tier-1 scenario snapshots."""

    def test_flow_jobs_do_not_change_reports(self):
        from repro.experiments.scenarios import get_scenario

        result = ExperimentRunner(
            profile="tiny", seed=13, keep_snapshots=True
        ).run(get_scenario("E"))
        assert result.snapshots, "tiny run must produce snapshots"
        snapshots = result.snapshots[-2:]
        for snapshot in snapshots:
            serial = ConnectivityAnalyzer(seed=3, flow_jobs=1).analyze_snapshot(
                snapshot.routing_tables
            )
            parallel = ConnectivityAnalyzer(seed=3, flow_jobs=2).analyze_snapshot(
                snapshot.routing_tables
            )
            serial_dict = serial.as_dict()
            parallel_dict = parallel.as_dict()
            serial_dict.pop("elapsed_seconds")
            parallel_dict.pop("elapsed_seconds")
            assert serial_dict == parallel_dict


class TestPoolReuseAcrossSnapshots:
    """One worker pool serves the engines of consecutive snapshots: only
    the compact network (under a fresh epoch) travels between engines."""

    def test_external_session_shared_by_consecutive_engines(self):
        graphs = [circulant_graph(10, [1]), circulant_graph(10, [1, 2, 3])]
        expected = [2, 6]
        with pool_session(2) as session:
            for graph, kappa in zip(graphs, expected):
                with PairFlowEngine(graph, session=session) as engine:
                    outcome = engine.evaluate([(0, 5), (1, 6)])
                assert outcome.values == [kappa, kappa]
                # The shards ran on the borrowed session: the network was
                # frozen for shipping, which an in-process run never does.
                assert engine._compact is not None
            # Borrowed, never closed: neither the evaluations nor the
            # ``with`` blocks shut the caller's pool down.
            assert session.map(abs, [-3]) == [3]

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="the platform has no spawn start method",
    )
    def test_consecutive_engines_on_one_spawn_pool(self, obs_enabled, monkeypatch):
        # Spawned workers start a fresh interpreter: they import the
        # engine's worker side on their own and see each network only
        # through the shards, never through inherited memory.
        graphs = [
            random_regular_out_digraph(40, 4, random.Random(seed))
            for seed in (7, 8)
        ]

        # Spawned workers never read the constants: the parent cuts
        # the shards.
        monkeypatch.setattr(pairflow, "SHARD_SIZE", 6)
        monkeypatch.setattr(pairflow, "WAVE_WIDTH", 2)

        def run(graph, session):
            obs_enabled.clear()
            engine = PairFlowEngine(graph, session=session)
            pairs = sample_non_adjacent_pairs(graph, 30, random.Random(1))
            outcome = engine.evaluate(pairs, use_cutoff=True)
            counters = [
                obs_enabled.counter(f"maxflow.{name}")
                for name in KERNEL_COUNTERS
            ]
            return engine, (outcome, counters)

        expected = [run(graph, None)[1] for graph in graphs]
        session = ParallelExecutor(jobs=2, start_method="spawn").open_session()
        try:
            for graph, reference in zip(graphs, expected):
                engine, observed = run(graph, session)
                assert observed == reference
                assert engine._compact is not None  # built to ship
            assert observed[1][0] > 0  # the kernel ran: phases counted
        finally:
            session.close()

    def test_payload_miss_is_resent(self):
        graph = circulant_graph(8, [1, 2])
        with pool_session(2) as session:
            engine = PairFlowEngine(graph, session=session)
            # Pretend the payload already shipped: every worker will miss
            # this engine's epoch and must be answered via the re-send path.
            engine._payload_shipped = True
            outcome = engine.evaluate([(0, 4), (1, 5), (2, 6)])
            assert outcome.values == [4, 4, 4]

    def test_analyzer_reuses_one_pool_across_graphs(self):
        analyzer = ConnectivityAnalyzer(seed=5, flow_jobs=2)
        serial = ConnectivityAnalyzer(seed=5, flow_jobs=1)
        graphs = [
            make_random_graph(9, 0.5, seed)
            for seed in (21, 22, 23)
        ]
        with analyzer:
            first_session = None
            for graph in graphs:
                parallel_report = analyzer.analyze_graph(graph).as_dict()
                serial_report = serial.analyze_graph(graph).as_dict()
                parallel_report.pop("elapsed_seconds")
                serial_report.pop("elapsed_seconds")
                assert parallel_report == serial_report
                if first_session is None:
                    first_session = analyzer._flow_session
                else:
                    assert analyzer._flow_session is first_session
        assert analyzer._flow_session is None  # released on close
