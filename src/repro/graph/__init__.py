"""Directed-graph substrate used by the connectivity analysis.

The paper's tool-chain used a Java graph representation plus the C max-flow
solver HIPR.  This subpackage replaces both with pure-Python code:

* :class:`repro.graph.digraph.DiGraph` — a compact adjacency-based directed
  graph with per-edge capacities.
* :mod:`repro.graph.maxflow` — max-flow solvers (highest-label push-relabel,
  Dinic, Edmonds-Karp) sharing one residual-network representation.
* :mod:`repro.graph.transform` — Even's vertex-splitting transformation that
  turns vertex-connectivity queries into max-flow queries.
* :mod:`repro.graph.io` — DIMACS and edge-list readers/writers.
* :mod:`repro.graph.algorithms` — BFS/DFS, connected components, strongly
  connected components and degree statistics.
"""
