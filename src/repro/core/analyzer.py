"""The per-snapshot measurement: its shared skeleton and the exact analyzer.

:class:`FlowEngineHost` does what every mode does to a connectivity
graph — the timer, the disconnected-vertex and strong-connectivity
checks, the ``n <= 1`` and complete-graph shortcuts, exhaustive
recovery, the pair-flow engine and the report fields both report
classes share — and its subclasses add only their sampled passes: the
estimator's (:mod:`repro.core.estimation`) and
:class:`ConnectivityAnalyzer`'s, which packages the paper's pipeline
(Sections 4.2–4.4 and the sampling reduction of Section 5.2):

* **exact mode** (``source_fraction=None``) — every ordered non-adjacent
  pair is evaluated (:func:`~repro.core.vertex_connectivity
  .exhaustive_statistics`) on the same engine, worker pool and counters as
  the sampled mode; used as the oracle in tests and for small graphs.
* **sampled mode** (default) — a two-pass scheme per snapshot:

  1. *minimum pass*: the strongly-connected-components check settles
     ``kappa = 0`` exactly (a graph that is not strongly connected has a
     pair with no path at all).  Otherwise flow sources are the vertices
     with the smallest out-degree and flow targets the vertices with the
     smallest in-degree (a two-sided variant of the paper's ``c * n``
     lowest-out-degree source sampling), with each flow cut off at the
     running minimum.
  2. *average pass*: uniformly random non-adjacent ordered pairs are
     evaluated without cutoffs, giving an unbiased estimate of the mean
     pairwise connectivity (the figures' "Avg" series).

Both deviations from the paper's single-pass sampling are substitutions for
the missing compute cluster.
"""

from __future__ import annotations

import math
import random
import time as wallclock
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.connectivity_graph import build_connectivity_graph, disconnected_vertices
from repro.core.resilience import resilience_of
from repro.core.vertex_connectivity import (
    exhaustive_statistics,
    lowest_in_degree_vertices,
    lowest_out_degree_vertices,
    sample_non_adjacent_pairs,
)
from repro.graph.algorithms.components import is_strongly_connected
from repro.graph.digraph import DiGraph
from repro.runtime.executor import make_executor
from repro.runtime.pairflow import PairFlowEngine

#: Lower bounds on the minimum pass's corner, so tiny graphs still
#: evaluate a meaningful set of pairs: ``max(MIN_SOURCES, ceil(c * n))``
#: lowest-out-degree sources x ``max(MIN_TARGETS, ceil(c_t * n))``
#: lowest-in-degree targets.
MIN_SOURCES = 4
MIN_TARGETS = 8

#: What a pass hands the skeleton: the measured minimum (which fixes the
#: report's ``resilience``) and the report fields of the host's own class.
PassFields = Tuple[int, Dict[str, object]]


@dataclass(frozen=True)
class ConnectivityReport:
    """Everything the experiments record about one connectivity graph.

    Attributes
    ----------
    minimum / average:
        The "Min" and "Avg" connectivity series of the paper's figures.
    resilience:
        ``max(minimum - 1, 0)`` — the number of compromised nodes the
        network tolerates (Equation 2).
    vertex_count / edge_count:
        Size of the connectivity graph.
    disconnected_count:
        Number of vertices with in- or out-degree 0 (the paper's
        "disconnected nodes" that drive the minimum to zero after setup).
    strongly_connected:
        Whether the graph is one strongly connected component.
    symmetry_ratio:
        Fraction of edges whose reverse also exists (Section 5.2 argues
        this is close to 1, justifying the source-sampling reduction).
    min_pairs_evaluated / avg_pairs_evaluated:
        Number of max-flow computations spent on each pass.
    exact:
        True when the minimum was computed over all vertex pairs.
    elapsed_seconds:
        Wall-clock cost of the analysis (for the scaling discussion).
    """

    minimum: int
    average: float
    resilience: int
    vertex_count: int
    edge_count: int
    disconnected_count: int
    strongly_connected: bool
    symmetry_ratio: float
    min_pairs_evaluated: int
    avg_pairs_evaluated: int
    exact: bool
    elapsed_seconds: float

    # -- shared report protocol ----------------------------------------
    # Exact and estimated reports (see repro.core.estimation) expose the
    # same four accessors so downstream tables, figures and obs code
    # never branch on the result class.
    @property
    def min_connectivity(self) -> int:
        """Protocol accessor: the reported minimum connectivity."""
        return self.minimum

    @property
    def avg_connectivity(self) -> float:
        """Protocol accessor: the reported average connectivity."""
        return self.average

    @property
    def is_exact(self) -> bool:
        """Protocol accessor: True — this class carries measured values.

        (The ``exact`` field distinguishes full-pair from sampled-pair
        measurement *within* the exact pipeline; either way the values
        are real flow computations, not statistical estimates.)
        """
        return True

    @property
    def confidence_interval(self) -> Optional[Tuple[float, float]]:
        """Protocol accessor: None — exact-mode reports carry no CI."""
        return None

    def as_dict(self) -> dict:
        """Return the report as a plain dictionary (JSON-friendly)."""
        return {
            "minimum": self.minimum,
            "average": self.average,
            "resilience": self.resilience,
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "disconnected_count": self.disconnected_count,
            "strongly_connected": self.strongly_connected,
            "symmetry_ratio": self.symmetry_ratio,
            "min_pairs_evaluated": self.min_pairs_evaluated,
            "avg_pairs_evaluated": self.avg_pairs_evaluated,
            "exact": self.exact,
            "elapsed_seconds": self.elapsed_seconds,
        }


class FlowEngineHost:
    """The measurement skeleton of the exact analyzer and the estimator.

    :meth:`analyze_graph` is the one analysis body (see the module
    docstring); a subclass names its ``report_class`` and supplies the
    three hooks below.  The host also owns the engine configuration,
    the seeded sampling stream (one stream across every snapshot the
    host sees, drawn from graph structure only, never from a flow value)
    and the lazily opened worker pool, reused until :meth:`close`.
    """

    report_class: type

    def __init__(
        self, algorithm: str = "dinic", seed: int = 0, flow_jobs: int = 1
    ) -> None:
        if flow_jobs < 1:
            raise ValueError("flow_jobs must be >= 1")
        self.algorithm = algorithm
        self.seed = int(seed)
        self.flow_jobs = flow_jobs
        self._rng = random.Random(self.seed)
        self._flow_session = None

    # ------------------------------------------------------------------
    def analyze_graph(self, graph: DiGraph):
        """Analyze an already-built connectivity graph."""
        started = wallclock.perf_counter()
        n = graph.number_of_vertices()
        disconnected = disconnected_vertices(graph)
        strongly_connected = is_strongly_connected(graph)

        if n <= 1:
            strongly_connected = True
            minimum, fields = self._exact_fields(0, 0.0, 0)
        elif graph.is_complete():
            minimum, fields = self._exact_fields(n - 1, float(n - 1), 0)
        else:
            # One Even-transformed network serves every pair of every
            # pass; with flow_jobs > 1 they all run on the host's pool.
            engine = self._make_engine(graph)
            if self._covers_every_pair(graph):
                stats = exhaustive_statistics(engine)
                minimum, fields = self._exact_fields(
                    stats.minimum, stats.average, stats.pairs_evaluated
                )
            else:
                minimum, fields = self._sampled_fields(
                    graph, engine, strongly_connected
                )

        elapsed = wallclock.perf_counter() - started
        report = self.report_class(
            resilience=resilience_of(minimum),
            vertex_count=n,
            edge_count=graph.number_of_edges(),
            disconnected_count=len(disconnected),
            strongly_connected=strongly_connected,
            symmetry_ratio=graph.symmetry_ratio(),
            elapsed_seconds=elapsed,
            **fields,
        )
        self._record_obs(report)
        return report

    def analyze_snapshot(
        self,
        routing_tables: Mapping[int, Sequence[int]],
        alive_nodes: Optional[Sequence[int]] = None,
    ):
        """Build the connectivity graph from a snapshot and analyze it."""
        graph = build_connectivity_graph(routing_tables, alive_nodes=alive_nodes)
        return self.analyze_graph(graph)

    # -- hooks ---------------------------------------------------------
    def _covers_every_pair(self, graph: DiGraph) -> bool:
        """Whether to evaluate every non-adjacent pair (exact recovery)."""
        raise NotImplementedError

    def _exact_fields(self, minimum: int, average: float, pairs: int) -> PassFields:
        """Fields of an exact result: a shortcut (``pairs == 0``) or
        exhaustive recovery over ``pairs`` evaluated pairs."""
        raise NotImplementedError

    def _sampled_fields(
        self, graph: DiGraph, engine: PairFlowEngine, strongly_connected: bool
    ) -> PassFields:
        """Run the host's sampled passes on a graph with ``n >= 2``
        that is not complete."""
        raise NotImplementedError

    def _record_obs(self, report) -> None:
        """Fold one report into the active metrics registry (default: none)."""

    # ------------------------------------------------------------------
    # Worker-pool lifetime.  One host typically serves every snapshot of
    # a run; with flow_jobs > 1 the process pool is opened on the first
    # analysis and reused until close() — only the compact network differs
    # between snapshots, the workers persist (ROADMAP: pool reuse across
    # consecutive snapshots).
    # ------------------------------------------------------------------
    def _flow_pool(self):
        """Return (opening lazily) the shared worker-pool session, or None."""
        if self.flow_jobs <= 1:
            return None
        if self._flow_session is None:
            self._flow_session = make_executor(self.flow_jobs).open_session()
        return self._flow_session

    def close(self) -> None:
        """Release the shared worker pool (idempotent; serial is a no-op)."""
        session, self._flow_session = self._flow_session, None
        if session is not None:
            session.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _make_engine(self, graph: DiGraph) -> PairFlowEngine:
        """Build the pair-flow engine for one connectivity graph."""
        return PairFlowEngine(
            graph, algorithm=self.algorithm, session=self._flow_pool()
        )


class ConnectivityAnalyzer(FlowEngineHost):
    """Computes :class:`ConnectivityReport` objects from connectivity graphs.

    The skeleton (shortcuts, exhaustive recovery, engine, shared report
    fields) is :class:`FlowEngineHost`'s; this class adds the corner
    minimum pass and the uniform average pass of sampled mode.

    Parameters
    ----------
    algorithm:
        Max-flow algorithm used for the pairwise computations.
    source_fraction:
        The paper's ``c`` — fraction of lowest-out-degree vertices used as
        flow sources in the minimum pass (at least :data:`MIN_SOURCES`).
        ``None`` selects every vertex (exact mode).
    target_fraction:
        Fraction of lowest-in-degree vertices used as flow targets in the
        minimum pass (at least :data:`MIN_TARGETS`; ignored in exact mode).
    average_pairs:
        Number of random non-adjacent pairs evaluated (without cutoff) for
        the "Avg" series.  0 disables the average pass (the average is then
        reported equal to the minimum).
    seed:
        Seed of the internal sampling stream.
    flow_jobs:
        Worker processes for the batched pair-flow engine
        (:class:`repro.runtime.pairflow.PairFlowEngine`).  ``1`` (default)
        evaluates shards in-process; any value produces bit-identical
        reports because the engine's shard/wave structure is independent
        of the worker count.
    """

    report_class = ConnectivityReport

    def __init__(
        self,
        algorithm: str = "dinic",
        source_fraction: Optional[float] = 0.05,
        target_fraction: float = 0.05,
        average_pairs: int = 48,
        seed: int = 0,
        flow_jobs: int = 1,
    ) -> None:
        if source_fraction is not None and source_fraction <= 0:
            raise ValueError("source_fraction must be positive or None")
        if target_fraction <= 0:
            raise ValueError("target_fraction must be positive")
        super().__init__(algorithm=algorithm, seed=seed, flow_jobs=flow_jobs)
        self.source_fraction = source_fraction
        self.target_fraction = target_fraction
        self.average_pairs = average_pairs

    # ------------------------------------------------------------------
    def _covers_every_pair(self, graph: DiGraph) -> bool:
        return self.source_fraction is None

    def _exact_fields(self, minimum: int, average: float, pairs: int) -> PassFields:
        # Exhaustive evaluation serves both passes at once.
        return minimum, dict(
            minimum=minimum, average=average, min_pairs_evaluated=pairs,
            avg_pairs_evaluated=pairs, exact=True,
        )

    def _sampled_fields(
        self, graph: DiGraph, engine: PairFlowEngine, strongly_connected: bool
    ) -> PassFields:
        n = graph.number_of_vertices()
        # Minimum pass.  A graph that is not strongly connected
        # contains a pair with no directed path, so its connectivity
        # is exactly 0 and no flow computation is needed.
        min_pairs = 0
        if not strongly_connected:
            minimum = 0
        else:
            source_count = max(MIN_SOURCES, math.ceil(self.source_fraction * n))
            target_count = max(MIN_TARGETS, math.ceil(self.target_fraction * n))
            sources = lowest_out_degree_vertices(graph, min(source_count, n))
            targets = lowest_in_degree_vertices(graph, min(target_count, n))
            degree_bound = min(graph.min_out_degree(), graph.min_in_degree())
            minimum, min_pairs = engine.minimum_over(
                sources, targets, initial_minimum=degree_bound
            )

        # Average pass (unbiased, no cutoffs).  The pairs are sampled
        # before evaluation — the rng stream depends only on the graph,
        # so serial and parallel runs see identical pairs.
        if self.average_pairs > 0:
            average, avg_pairs = engine.average_over(
                sample_non_adjacent_pairs(graph, self.average_pairs, self._rng)
            )
            if avg_pairs == 0:
                average = float(minimum)
        else:
            average, avg_pairs = float(minimum), 0

        return minimum, dict(
            minimum=minimum, average=average, min_pairs_evaluated=min_pairs,
            avg_pairs_evaluated=avg_pairs, exact=False,
        )
