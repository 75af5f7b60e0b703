"""Multi-seed replication of scenarios.

A single simulation run is one draw from a stochastic process; the paper's
qualitative claims (ordering of curves, presence of collapses) should be
stable across seeds.  :func:`replicate_scenario` runs a scenario several
times with independent seeds and aggregates the per-run statistics into
means and standard deviations, which the benchmarks and examples can use to
distinguish a real effect from run-to-run noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.analysis.statistics import mean, population_variance
from repro.experiments.profiles import ScaleProfile
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import Scenario
from repro.options import ExecutionOptions, MeasurementSpec
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import ProgressCallback, replication_tasks


@dataclass(frozen=True)
class ReplicatedStatistic:
    """Mean and spread of one scalar statistic across replications."""

    name: str
    values: List[float]

    @property
    def mean(self) -> float:
        """Mean over replications."""
        return mean(self.values)

    @property
    def std(self) -> float:
        """Population standard deviation over replications."""
        if len(self.values) < 2:
            return 0.0
        return math.sqrt(population_variance(self.values))

    @property
    def minimum(self) -> float:
        """Smallest observed value."""
        return min(self.values)

    @property
    def maximum(self) -> float:
        """Largest observed value."""
        return max(self.values)

    def as_dict(self) -> Dict[str, float]:
        """Flat representation for reports."""
        return {
            "statistic": self.name,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
            "replications": len(self.values),
        }


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregated statistics of one scenario across seeds."""

    scenario: Scenario
    results: List[ExperimentResult]
    statistics: Dict[str, ReplicatedStatistic]

    def statistic(self, name: str) -> ReplicatedStatistic:
        """Return the named statistic (KeyError if unknown)."""
        return self.statistics[name]

    def as_rows(self) -> List[Dict[str, float]]:
        """Rows for tabular rendering."""
        return [stat.as_dict() for stat in self.statistics.values()]


#: The scalar statistics aggregated per replication.
_STATISTIC_EXTRACTORS = {
    "stabilized_min": lambda result: float(result.stabilized_minimum()),
    "churn_mean_min": lambda result: result.churn_mean_minimum(),
    "churn_rv_min": lambda result: result.churn_relative_variance_minimum(),
    "churn_mean_avg": lambda result: result.churn_mean_average(),
    "final_network_size": lambda result: float(result.final_network_size()),
}


def replicate_scenario(
    scenario: Scenario,
    seeds: Sequence[int],
    profile: "ScaleProfile | str" = "tiny",
    measurement: MeasurementSpec = MeasurementSpec(),
    execution: ExecutionOptions = ExecutionOptions(),
    cache: "ResultCache | None" = None,
    progress: "ProgressCallback | None" = None,
) -> ReplicationSummary:
    """Run ``scenario`` once per seed and aggregate the summary statistics.

    Replications are independent tasks, so they dispatch through
    :mod:`repro.runtime` like every sweep: ``measurement`` says what each
    snapshot's analysis computes, ``execution`` how the runs are
    scheduled and placed (bit-identical results for any value — see
    :mod:`repro.options`), and a :class:`~repro.runtime.cache.ResultCache`
    lets repeated invocations (or a grown seed list) reuse finished runs.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    tasks = replication_tasks(
        scenario, seeds, profile, measurement=measurement, execution=execution
    )
    with execution.campaign(cache=cache, progress=progress) as campaign:
        results = campaign.run(tasks)
    statistics = {
        name: ReplicatedStatistic(
            name=name, values=[extract(result) for result in results]
        )
        for name, extract in _STATISTIC_EXTRACTORS.items()
    }
    return ReplicationSummary(scenario=scenario, results=results, statistics=statistics)
