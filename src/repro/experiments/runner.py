"""Run one scenario end-to-end and collect the connectivity time series."""

from __future__ import annotations

import time as wallclock
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.obs import tracing

from repro.churn.churn_model import get_churn_scenario
from repro.churn.loss import get_loss_model
from repro.churn.traffic import TrafficModel
from repro.core.timeseries import ConnectivitySample, ConnectivityTimeSeries
from repro.experiments.phases import PhaseSchedule
from repro.experiments.profiles import ScaleProfile, get_profile
from repro.experiments.scenarios import Scenario
from repro.experiments.simulation import OverlaySimulation
from repro.experiments.snapshot import RoutingTableSnapshot
from repro.options import ExecutionOptions, MeasurementSpec
from repro.overlay import get_overlay
from repro.simulator.random_source import RandomSource
from repro.simulator.transport import TransportStats


@dataclass
class ExperimentResult:
    """Everything recorded while running one scenario."""

    scenario: Scenario
    profile_name: str
    phases: PhaseSchedule
    series: ConnectivityTimeSeries
    transport_stats: TransportStats
    seed: int
    joins: int
    leaves: int
    wall_seconds: float
    snapshots: List[RoutingTableSnapshot] = field(default_factory=list)
    #: Metrics snapshot of the run's observability registry (None unless
    #: ``REPRO_OBS`` was enabled).  **Transient by design**: persistence
    #: (:func:`repro.experiments.persistence.result_to_dict`) enumerates
    #: fields explicitly and never serialises this one, so cache entries
    #: and trajectory digests are byte-identical with metrics on or off.
    obs_metrics: Optional[dict] = None

    # ------------------------------------------------------------------
    def churn_mean_minimum(self) -> float:
        """Mean of the minimum connectivity during the churn phase (Table 2)."""
        start, end = self.phases.churn_window()
        return self.series.mean_minimum(start, end + 1e-9)

    def churn_relative_variance_minimum(self) -> float:
        """Relative variance of the minimum connectivity during churn (Table 2)."""
        start, end = self.phases.churn_window()
        return self.series.relative_variance_minimum(start, end + 1e-9)

    def churn_mean_average(self) -> float:
        """Mean of the average connectivity during the churn phase."""
        start, end = self.phases.churn_window()
        return self.series.mean_average(start, end + 1e-9)

    def stabilized_minimum(self) -> int:
        """Minimum connectivity at the last snapshot before churn starts."""
        pre_churn = self.series.window(0.0, self.phases.stabilization_end + 1e-9)
        if not len(pre_churn):
            return 0
        return pre_churn.samples[-1].minimum

    def final_network_size(self) -> int:
        """Network size at the final snapshot."""
        return self.series.final_sample().network_size if len(self.series) else 0

    def summary(self) -> Dict[str, float]:
        """Small dictionary used by reports and the CLI."""
        return {
            "scenario": self.scenario.name,
            "k": self.scenario.bucket_size,
            "alpha": self.scenario.alpha,
            "churn": self.scenario.churn,
            "loss": self.scenario.loss,
            "staleness": self.scenario.staleness_limit,
            "size_class": self.scenario.size_class,
            "stabilized_min": self.stabilized_minimum(),
            "churn_mean_min": self.churn_mean_minimum(),
            "churn_rv_min": self.churn_relative_variance_minimum(),
            "final_network_size": self.final_network_size(),
            "wall_seconds": self.wall_seconds,
        }


def _record_run_metrics(registry, simulation: OverlaySimulation, wall: float) -> None:
    """Fold end-of-run simulator/transport aggregates into the registry.

    Hot-loop quantities (events executed, message counts) are read off
    the always-on counters the simulator and transport keep anyway, so
    observability adds nothing to the event loop itself; only this one
    end-of-run pass is extra.  Counters accumulate across merges, gauges
    describe this single run (a campaign merging many task snapshots
    folds them into per-name histograms).
    """
    simulator = simulation.simulator
    registry.inc("sim.events", simulator.events_processed)
    registry.set_gauge(
        "sim.events_per_sec",
        simulator.events_processed / wall if wall > 0 else 0.0,
    )
    registry.set_gauge("sim.virtual_minutes", simulator.now)
    registry.set_gauge("sim.heap_live", simulator.pending_events)
    registry.set_gauge("sim.heap_dead", simulator.cancelled_pending_events)
    registry.inc("sim.heap_compactions", simulator.compactions)
    registry.set_gauge("sim.wall_seconds", wall)
    registry.inc("sim.joins", simulation.joins)
    registry.inc("sim.leaves", simulation.leaves)
    registry.inc("sim.snapshots", simulation.snapshots_taken)

    stats = simulation.transport.stats
    registry.inc("transport.requests_sent", stats.requests_sent)
    registry.inc("transport.round_trips_ok", stats.round_trips_ok)
    registry.inc("transport.round_trips_failed", stats.round_trips_failed)
    registry.inc("transport.requests_lost", stats.requests_lost)
    registry.inc("transport.responses_lost", stats.responses_lost)
    registry.inc(
        "transport.requests_to_dead_nodes", stats.requests_to_dead_nodes
    )
    request_counts = simulation.transport.obs_request_counts
    if request_counts:
        for name, count in request_counts.items():
            registry.inc(f"transport.messages.{name}", count)


class ExperimentRunner:
    """Configure and execute scenario runs.

    Parameters
    ----------
    profile:
        A :class:`ScaleProfile` or profile name (default ``"bench"``).
    seed:
        Root seed; each scenario run derives its own child universe from
        the scenario name, so two runs of the same scenario with the same
        seed are identical and different scenarios are independent.
    keep_snapshots:
        Store the raw routing-table snapshots on the result (memory-heavy;
        off by default).
    measurement:
        :class:`~repro.options.MeasurementSpec` — what every snapshot's
        analysis computes (max-flow algorithm, exact or estimated
        connectivity).  Identity-bearing.
    execution:
        :class:`~repro.options.ExecutionOptions` — how the analysis is
        executed (the pair-flow engine's worker processes).  Any value
        yields bit-identical results, so it is not part of the
        experiment's identity.
    """

    def __init__(
        self,
        profile: ScaleProfile | str = "bench",
        seed: int = 42,
        keep_snapshots: bool = False,
        measurement: MeasurementSpec = MeasurementSpec(),
        execution: ExecutionOptions = ExecutionOptions(),
    ) -> None:
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.seed = seed
        self.keep_snapshots = keep_snapshots
        self.measurement = measurement
        self.execution = execution

    @classmethod
    def for_task(cls, task) -> "ExperimentRunner":
        """Build the runner matching an :class:`repro.runtime.task.ExperimentTask`.

        Used by :meth:`ExperimentTask.run`.  A runner is
        scenario-independent and holds no per-run mutable state —
        :meth:`run` builds a fresh simulation and analyzer every call —
        so construction is five attribute assignments and is not worth
        caching anywhere.
        """
        return cls(
            profile=task.profile,
            seed=task.seed,
            keep_snapshots=task.keep_snapshots,
            measurement=task.measurement,
            execution=task.execution,
        )

    # ------------------------------------------------------------------
    def build_simulation(
        self, scenario: Scenario, hardening=None
    ) -> OverlaySimulation:
        """Construct (but do not run) the simulation for ``scenario``.

        The scenario's ``protocol`` selects the overlay (Kademlia, Chord
        or Pastry) via the registry in :mod:`repro.overlay`; its
        configuration and per-node protocol factory come from the
        overlay's descriptor.

        ``hardening`` is an optional
        :class:`repro.extensions.hardening.HardeningConfig`; when given, its
        protocol factory and maintenance policies are attached to the
        simulation (used by the ablation benchmarks and the hardening
        examples).  The hardening extensions subclass the Kademlia
        protocol, so they are rejected for other overlays.
        """
        profile = self.profile
        overlay = get_overlay(scenario.protocol)
        config = scenario.overlay_config(
            refresh_interval_minutes=profile.refresh_interval_minutes,
            refresh_all_buckets=profile.refresh_all_buckets,
        )
        traffic = (
            TrafficModel(
                enabled=True,
                lookups_per_node_per_minute=profile.lookups_per_node_per_minute,
                disseminations_per_node_per_minute=profile.disseminations_per_node_per_minute,
            )
            if scenario.traffic
            else TrafficModel.disabled()
        )
        extra_kwargs = {}
        if hardening is not None:
            if scenario.protocol != "kademlia":
                raise ValueError(
                    "hardening extensions are Kademlia-specific; scenario "
                    f"{scenario.name!r} uses protocol {scenario.protocol!r}"
                )
            extra_kwargs = {
                "protocol_factory": hardening.protocol_factory(),
                "maintenance": hardening.maintenance_policies(),
            }
        else:
            extra_kwargs = {
                "protocol_factory": overlay.protocol_factory(),
                "protocol_name": overlay.name,
            }
        return OverlaySimulation(
            config=config,
            loss=get_loss_model(scenario.loss),
            traffic=traffic,
            churn=get_churn_scenario(scenario.churn),
            random_source=RandomSource(self.seed).spawn(scenario.name),
            **extra_kwargs,
        )

    def phase_schedule(self, scenario: Scenario) -> PhaseSchedule:
        """Return the phase schedule of ``scenario`` under the active profile."""
        profile = self.profile
        size = profile.network_size(scenario.size_class)
        return PhaseSchedule(
            setup_end=profile.setup_minutes,
            stabilization_end=profile.churn_start,
            simulation_end=profile.simulation_end(scenario.churn, size),
        )

    def build_analyzer(self):
        """Return the per-snapshot connectivity measurement object.

        Built by the runner's :class:`~repro.options.MeasurementSpec`
        with the profile's pair sampling and the runner's seed; exact
        and estimate mode expose the same ``analyze_graph`` /
        context-manager surface and report through the shared
        connectivity-report protocol, so :meth:`_run` never branches.
        """
        profile = self.profile
        return self.measurement.analyzer(
            seed=self.seed,
            execution=self.execution,
            source_fraction=profile.source_fraction,
            target_fraction=profile.target_fraction,
            average_pairs=profile.average_pairs,
        )

    # ------------------------------------------------------------------
    def run(self, scenario: Scenario, hardening=None) -> ExperimentResult:
        """Run ``scenario`` and return the collected measurements.

        ``hardening`` optionally enables the extension mechanisms — see
        :meth:`build_simulation`.

        Under observability the whole run executes inside a fresh
        :func:`repro.obs.run_scope`, so the transport, protocols and
        pair-flow engines built below record into a per-run registry
        whose snapshot is attached as ``result.obs_metrics`` — cleanly
        per-task even when a warm worker runs many tasks in one process.

        The simulation is torn down (:meth:`OverlaySimulation.close`) before
        this returns or raises, so a finished run leaves no reference
        cycles behind: a serial campaign or a warm worker holds one run's
        simulation at a time, not every run's until a full collection.
        """
        with obs.run_scope() as registry, tracing.span(
            "experiment.run",
            scenario=scenario.name,
            profile=self.profile.name,
            seed=self.seed,
        ):
            return self._run(scenario, hardening, registry)

    def _run(
        self, scenario: Scenario, hardening, registry
    ) -> ExperimentResult:
        profile = self.profile
        simulation = self.build_simulation(scenario, hardening=hardening)
        try:
            phases = self.phase_schedule(scenario)
            analyzer = self.build_analyzer()
            size = profile.network_size(scenario.size_class)

            series = ConnectivityTimeSeries(label=scenario.label())
            stored_snapshots: List[RoutingTableSnapshot] = []

            def _on_snapshot(snapshot: RoutingTableSnapshot) -> None:
                # The simulation maintains the connectivity graph incrementally
                # (rows rebuilt only for tables whose membership changed since
                # the previous snapshot); the graph is content-identical to
                # build_connectivity_graph(snapshot.routing_tables) and is
                # consumed synchronously, before the simulation advances.
                tracing.point(
                    "snapshot", vt=snapshot.time, network_size=snapshot.network_size
                )
                report = analyzer.analyze_graph(simulation.connectivity_graph())
                series.append(
                    ConnectivitySample(
                        time=snapshot.time,
                        network_size=snapshot.network_size,
                        report=report,
                    )
                )
                if self.keep_snapshots:
                    stored_snapshots.append(snapshot)

            simulation.schedule_setup(size, profile.setup_minutes)
            simulation.schedule_traffic(1.0, phases.simulation_end)
            simulation.schedule_churn(phases.stabilization_end, phases.simulation_end)
            simulation.schedule_snapshots(
                phases.snapshot_times(profile.snapshot_interval_minutes), _on_snapshot
            )

            started = wallclock.perf_counter()
            # The analyzer holds the shared flow-worker pool (flow_jobs > 1)
            # open across all snapshots of the run; release it at the end.
            with analyzer:
                simulation.run_until(phases.simulation_end)
            wall = wallclock.perf_counter() - started

            result = ExperimentResult(
                scenario=scenario,
                profile_name=profile.name,
                phases=phases,
                series=series,
                transport_stats=simulation.transport.stats,
                seed=self.seed,
                joins=simulation.joins,
                leaves=simulation.leaves,
                wall_seconds=wall,
                snapshots=stored_snapshots,
            )
            if registry is not None:
                _record_run_metrics(registry, simulation, wall)
                result.obs_metrics = registry.snapshot()
            return result
        finally:
            simulation.close()

    def run_many(self, scenarios: List[Scenario]) -> List[ExperimentResult]:
        """Run several scenarios sequentially."""
        return [self.run(scenario) for scenario in scenarios]
