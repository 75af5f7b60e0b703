"""repro — reproduction of *Evaluating Connection Resilience for the Overlay
Network Kademlia* (Heck, Kieselmann, Wacker; 2017).

The package bundles everything the paper's evaluation pipeline needs, built
from scratch in pure Python:

``repro.graph``
    A small directed-graph library with max-flow solvers (highest-label
    push-relabel, Dinic, Edmonds-Karp), Even's vertex-splitting
    transformation, DIMACS I/O and the usual traversal helpers.

``repro.simulator``
    A deterministic discrete-event simulation engine (the PeerSim
    substitute): event queue, simulated clock, message transport with
    latency and loss, protocol and control hooks.

``repro.kademlia``
    The Kademlia protocol itself — XOR metric, k-buckets, routing tables,
    iterative lookups with request parallelism ``alpha``, data
    dissemination, bucket refresh and staleness handling.

``repro.churn``
    Environment models: random bootstrap, churn scenarios, traffic
    generation and message-loss scenarios.

``repro.core``
    The paper's primary contribution — connectivity-graph construction,
    vertex connectivity (pairwise and global, exact or sampled) and the
    resilience model ``kappa(D) > r >= a``.

``repro.experiments``
    Scenario registry for the paper's Simulations A–L, the phase schedule
    (setup / stabilisation / churn), the runner and report generators for
    every table and figure.

``repro.runtime``
    Experiment execution harness: content-addressed tasks, serial and
    process-pool executors with bit-identical output, an on-disk result
    cache and the campaign driver behind every sweep and replication.

``repro.analysis``
    Statistics (mean, relative variance), series aggregation and ASCII
    rendering of the figures.

``repro.api``
    **The stable public facade.**  External callers (and ``examples/``)
    should import from :mod:`repro.api` — ``run_scenario``,
    ``run_sweep``, ``analyze_snapshot``, ``estimate_connectivity``,
    ``open_campaign`` plus curated re-exports — rather than from the
    internal modules above, whose layout may change between releases.

The ``__init__`` of this package and of each subpackage above
re-exports nothing, so importing a package loads none of its modules and
a process loads only what it names; :mod:`repro.api` is the one facade.
"""

__version__ = "1.0.0"
