"""High-level connectivity analyzer used at every snapshot.

The analyzer packages the paper's measurement pipeline (Sections 4.2–4.4 and
the sampling reduction of Section 5.2) into one object with a configurable
cost/exactness trade-off:

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
from typing import Mapping, Optional, Sequence, Tuple

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
    """Shared engine plumbing of the exact analyzer and the estimator.

    Owns the max-flow engine configuration (algorithm, worker count) and
    the lazily opened worker pool that persists across every snapshot
    the host sees.  Subclasses implement ``analyze_graph`` /
    ``analyze_snapshot`` on top of :meth:`_make_engine`.
    """

    def __init__(self, algorithm: str = "dinic", flow_jobs: int = 1) -> None:
        if flow_jobs < 1:
            raise ValueError("flow_jobs must be >= 1")
        self.algorithm = algorithm
        self.flow_jobs = flow_jobs
        self._flow_session = None

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

    def _make_engine(self, graph: DiGraph):
        """Build the pair-flow engine for one connectivity graph."""
        return PairFlowEngine(
            graph, algorithm=self.algorithm, session=self._flow_pool()
        )


class ConnectivityAnalyzer(FlowEngineHost):
    """Computes :class:`ConnectivityReport` objects from connectivity graphs.

    Parameters
    ----------
    algorithm:
        Max-flow algorithm used for the pairwise computations.
    source_fraction:
        The paper's ``c`` — fraction of lowest-out-degree vertices used as
        flow sources in the minimum pass.  ``None`` selects every vertex
        (exact mode).
    target_fraction:
        Fraction of lowest-in-degree vertices used as flow targets in the
        minimum pass (ignored in exact mode).
    min_sources / min_targets:
        Lower bounds on the sampled counts, so tiny graphs still evaluate a
        meaningful set of pairs.
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

    def __init__(
        self,
        algorithm: str = "dinic",
        source_fraction: Optional[float] = 0.05,
        target_fraction: float = 0.05,
        min_sources: int = 4,
        min_targets: int = 8,
        average_pairs: int = 48,
        seed: int = 0,
        flow_jobs: int = 1,
    ) -> None:
        if source_fraction is not None and source_fraction <= 0:
            raise ValueError("source_fraction must be positive or None")
        if target_fraction <= 0:
            raise ValueError("target_fraction must be positive")
        super().__init__(algorithm=algorithm, flow_jobs=flow_jobs)
        self.source_fraction = source_fraction
        self.target_fraction = target_fraction
        self.min_sources = min_sources
        self.min_targets = min_targets
        self.average_pairs = average_pairs
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    def analyze_graph(self, graph: DiGraph) -> ConnectivityReport:
        """Analyze an already-built connectivity graph."""
        started = wallclock.perf_counter()
        n = graph.number_of_vertices()
        disconnected = disconnected_vertices(graph)
        strongly_connected = is_strongly_connected(graph)

        if n <= 1:
            elapsed = wallclock.perf_counter() - started
            return self._report(
                minimum=0, average=0.0, graph=graph, disconnected=disconnected,
                strongly_connected=True, min_pairs=0, avg_pairs=0, exact=True,
                elapsed=elapsed,
            )

        if graph.is_complete():
            elapsed = wallclock.perf_counter() - started
            return self._report(
                minimum=n - 1, average=float(n - 1), graph=graph,
                disconnected=disconnected, strongly_connected=strongly_connected,
                min_pairs=0, avg_pairs=0, exact=True, elapsed=elapsed,
            )

        if self.source_fraction is None:
            stats = exhaustive_statistics(self._make_engine(graph))
            elapsed = wallclock.perf_counter() - started
            return self._report(
                minimum=stats.minimum, average=stats.average, graph=graph,
                disconnected=disconnected, strongly_connected=strongly_connected,
                min_pairs=stats.pairs_evaluated, avg_pairs=stats.pairs_evaluated,
                exact=True, elapsed=elapsed,
            )

        # One Even-transformed network is built here and reused for every
        # pair of both passes; with flow_jobs > 1 both passes run on the
        # host's one worker pool (the network ships to each worker once).
        engine = self._make_engine(graph)
        # Minimum pass.  A graph that is not strongly connected
        # contains a pair with no directed path, so its connectivity
        # is exactly 0 and no flow computation is needed.
        min_pairs = 0
        if not strongly_connected:
            minimum = 0
        else:
            source_count = max(
                self.min_sources, math.ceil(self.source_fraction * n)
            )
            target_count = max(
                self.min_targets, math.ceil(self.target_fraction * n)
            )
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

        elapsed = wallclock.perf_counter() - started
        return self._report(
            minimum=minimum, average=average, graph=graph,
            disconnected=disconnected, strongly_connected=strongly_connected,
            min_pairs=min_pairs, avg_pairs=avg_pairs, exact=False, elapsed=elapsed,
        )

    def analyze_snapshot(
        self,
        routing_tables: Mapping[int, Sequence[int]],
        alive_nodes: Optional[Sequence[int]] = None,
    ) -> ConnectivityReport:
        """Build the connectivity graph from a snapshot and analyze it."""
        graph = build_connectivity_graph(routing_tables, alive_nodes=alive_nodes)
        return self.analyze_graph(graph)

    # ------------------------------------------------------------------
    def _report(
        self,
        minimum: int,
        average: float,
        graph: DiGraph,
        disconnected,
        strongly_connected: bool,
        min_pairs: int,
        avg_pairs: int,
        exact: bool,
        elapsed: float,
    ) -> ConnectivityReport:
        return ConnectivityReport(
            minimum=minimum,
            average=average,
            resilience=resilience_of(minimum),
            vertex_count=graph.number_of_vertices(),
            edge_count=graph.number_of_edges(),
            disconnected_count=len(disconnected),
            strongly_connected=strongly_connected,
            symmetry_ratio=graph.symmetry_ratio(),
            min_pairs_evaluated=min_pairs,
            avg_pairs_evaluated=avg_pairs,
            exact=exact,
            elapsed_seconds=elapsed,
        )
