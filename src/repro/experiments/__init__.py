"""Experiment framework reproducing the paper's Simulations A–L.

* :mod:`repro.experiments.profiles` — scale profiles (paper-scale vs the
  laptop-scale defaults used by tests and benchmarks);
* :mod:`repro.experiments.phases` — the setup / stabilisation / churn phase
  schedule (Section 5.4);
* :mod:`repro.experiments.scenarios` — the registry of Simulations A–L and
  their parameter dimensions (Section 5.3);
* :mod:`repro.experiments.snapshot` — routing-table snapshots;
* :mod:`repro.experiments.simulation` — the orchestration layer wiring the
  Kademlia protocol, churn, traffic and loss models onto the event engine;
* :mod:`repro.experiments.runner` — runs one scenario and collects the
  connectivity time series;
* :mod:`repro.experiments.report` — regenerates the paper's tables/figures
  from experiment results;
* :mod:`repro.experiments.sweep` — parameter sweeps (bucket size k, alpha,
  staleness, loss).
"""
