"""Connectivity and resilience analysis — the paper's primary contribution.

The pipeline mirrors Sections 4.2–4.5 of the paper:

1. :mod:`repro.core.connectivity_graph` turns a routing-table snapshot into
   a directed *connectivity graph* (one vertex per node, an edge ``(v, w)``
   when ``w`` is in ``v``'s routing table, capacity 1 on every edge);
2. Even's transformation (:mod:`repro.graph.transform`) reduces
   vertex-connectivity queries to max-flow queries;
3. :mod:`repro.core.vertex_connectivity` computes pairwise connectivity
   ``kappa(v, w)`` and the global connectivity ``kappa(D)``, running every
   batch of pairs on :class:`repro.runtime.pairflow.PairFlowEngine`;
4. :mod:`repro.core.resilience` converts connectivity into the resilience
   statement of Equation 2: ``kappa(D) > r >= a``;
5. :class:`repro.core.analyzer.ConnectivityAnalyzer` packages the above,
   exhaustively or with the paper's ``c * n`` lowest-degree sampling, into
   the object the experiment runner calls at every snapshot, and
   :mod:`repro.core.timeseries` collects the per-snapshot reports into the
   time series shown in the paper's figures.

Beyond the paper's exact pipeline, :mod:`repro.core.estimation` provides
the sampled-pair estimation mode for deployment-scale graphs
(10^4–10^6 nodes): exact kappa on a stratified pair sample with a
deterministic confidence interval, and the bound ``min(degree bound,
sample minimum)`` on the minimum.
"""

from repro.core.analyzer import (
    ConnectivityAnalyzer,
    ConnectivityReport,
    FlowEngineHost,
)
from repro.core.estimation import (
    ConnectivityEstimator,
    EstimatedConnectivityReport,
    EstimateValidation,
    validate_exact_vs_estimate,
)
from repro.core.connectivity_graph import (
    build_connectivity_graph,
    connectivity_graph_from_protocols,
)
from repro.core.resilience import (
    ResilienceModel,
    required_bucket_size,
    required_connectivity,
    resilience_of,
)
from repro.core.timeseries import ConnectivitySample, ConnectivityTimeSeries
from repro.core.vertex_connectivity import (
    ConnectivityStatistics,
    global_vertex_connectivity,
    pairwise_vertex_connectivity,
)

__all__ = [
    "ConnectivityAnalyzer",
    "ConnectivityEstimator",
    "ConnectivityReport",
    "ConnectivitySample",
    "ConnectivityStatistics",
    "ConnectivityTimeSeries",
    "EstimateValidation",
    "EstimatedConnectivityReport",
    "FlowEngineHost",
    "ResilienceModel",
    "validate_exact_vs_estimate",
    "build_connectivity_graph",
    "connectivity_graph_from_protocols",
    "global_vertex_connectivity",
    "pairwise_vertex_connectivity",
    "required_bucket_size",
    "required_connectivity",
    "resilience_of",
]
