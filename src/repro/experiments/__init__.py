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

from repro.experiments.phases import PhaseSchedule
from repro.experiments.profiles import PROFILES, ScaleProfile, get_profile
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.experiments.scenarios import SCENARIOS, Scenario, ScenarioRegistry, get_scenario
from repro.experiments.snapshot import RoutingTableSnapshot
from repro.experiments.simulation import OverlaySimulation
from repro.experiments.sweep import run_bucket_size_sweep, run_scenario

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "OverlaySimulation",
    "PROFILES",
    "PhaseSchedule",
    "RoutingTableSnapshot",
    "SCENARIOS",
    "ScaleProfile",
    "Scenario",
    "ScenarioRegistry",
    "get_profile",
    "get_scenario",
    "run_bucket_size_sweep",
    "run_scenario",
]
