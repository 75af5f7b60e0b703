"""The benchmark's four workloads: inputs, the timed user-level call, checks.

Every workload is a closed loop with one caller.  An *operation* is one
user-level call on one *instance* of the workload; instance ``i`` of a
run with ``--seed S`` is generated from ``instance_seed(S, i)``, so a
run's median is taken over several independent inputs and does not hang
on the cost of one random graph.  The program only ever sees generated
inputs (task lists, a snapshot file, a fresh cache directory).

``repro`` is imported inside the methods, never at module level: the
import is part of ``setup_s``, and the orchestrator and the unit tests
import this module without the program on ``sys.path``.

Sizes are fixed so numbers stay comparable between commits.  They are
smaller than ISSUE 13 first proposed (one operation there took 10–29 s):
the driver gives all runs of all workloads 3420 s, which leaves about
30 s per run, and a run needs several operations for a steady median.
``bench/README.md`` lists the original sizes next to these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

#: Bucket sizes of the paper's sweeps (Table 2 columns).
BUCKET_SIZES = (5, 10, 20, 30)

Check = Tuple[str, bool]


def instance_seed(seed: int, instance: int) -> int:
    """Seed of instance ``instance`` of a run; instance 0 is ``seed`` itself."""
    return seed + 1000 * instance


@dataclass(frozen=True)
class CampaignWorkload:
    """Simulation tasks through ``open_campaign`` with a fresh result cache.

    ``seeds`` consecutive task seeds per (scenario, k) cell; one cold
    pass that simulates and stores every task, then ``warm_passes``
    passes that each open a new campaign on the same directory and must
    be served entirely from the cache.
    """

    name: str
    why: str
    scenarios: Tuple[str, ...]
    profile: str
    seeds: int
    jobs: int
    warm_passes: int
    render_table2: bool
    kind: str = "campaign"

    def setup(self, seed: int, tmp: Path) -> dict:
        from repro import api
        from repro.experiments.sweep import sweep_tasks

        overrides = [{"bucket_size": k} for k in BUCKET_SIZES]
        tasks = [
            task
            for task_seed in range(seed, seed + self.seeds)
            for name in self.scenarios
            for task in sweep_tasks(
                api.get_scenario(name), overrides, profile=self.profile, seed=task_seed
            )
        ]
        cache_dir = tmp / "cache"
        cache_dir.mkdir()
        return {"tasks": tasks, "cache_dir": cache_dir}

    def call(self, inputs: dict) -> dict:
        from repro import api
        from repro.experiments.report import format_table2

        tasks, cache_dir = inputs["tasks"], inputs["cache_dir"]
        stats = {"hits": 0, "misses": 0, "stores": 0}

        def one_pass() -> list:
            with api.open_campaign(jobs=self.jobs, cache_dir=cache_dir) as campaign:
                results = campaign.run(tasks)
                for field in stats:
                    stats[field] += getattr(campaign.cache.stats, field)
            return results

        started = time.perf_counter()
        cold = one_pass()
        cold_s = time.perf_counter() - started
        warm = [one_pass() for _ in range(self.warm_passes)]
        warm_s = time.perf_counter() - started - cold_s
        table, format_ms = None, 0.0
        if self.render_table2:
            format_started = time.perf_counter()
            table = format_table2(cold)
            format_ms = (time.perf_counter() - format_started) * 1e3
        return {
            "results": cold,
            "warm": warm,
            "table": table,
            "stats": stats,
            "phases": {
                "runtime.campaign.cold_s": cold_s,
                "runtime.campaign.warm_s": warm_s,
                "experiments.report.format_ms": format_ms,
            },
        }

    def summarize(self, outputs: dict) -> dict:
        from repro.experiments.persistence import trajectory_digest

        digests = [trajectory_digest(result) for result in outputs["results"]]
        warm_mismatches = sum(
            trajectory_digest(result) != digest
            for warm_pass in outputs["warm"]
            for result, digest in zip(warm_pass, digests)
        )
        task_walls = [result.wall_seconds for result in outputs["results"]]
        return {
            "identity": {"digests": digests, "table": outputs["table"]},
            "warm_mismatches": warm_mismatches,
            "cache": outputs["stats"],
            "task_walls": task_walls,
            "analysis_s": sum(
                sample.report.elapsed_seconds
                for result in outputs["results"]
                for sample in result.series.samples
            ),
        }

    @property
    def task_count(self) -> int:
        return len(self.scenarios) * len(BUCKET_SIZES) * self.seeds

    def operations(self) -> int:
        """Task executions and cache reads one operation attempts."""
        return self.task_count * (1 + self.warm_passes)

    def check(self, summary: dict) -> List[Check]:
        tasks = self.task_count
        cache = summary["cache"]
        checks = [
            ("every task returned a result", len(summary["identity"]["digests"]) == tasks),
            ("cold pass stored every task", cache["stores"] == tasks),
            ("cold pass missed every task", cache["misses"] == tasks),
            ("warm passes hit every task", cache["hits"] == tasks * self.warm_passes),
            ("warm results digest-equal to cold", summary["warm_mismatches"] == 0),
        ]
        if self.render_table2:
            table = summary["identity"]["table"] or ""
            checks.append(
                ("Table 2 has a row per task", len(table.splitlines()) == tasks + 2)
            )
        return checks


@dataclass(frozen=True)
class SnapshotWorkload:
    """``repro.api.analyze_snapshot`` on a synthetic snapshot saved as JSON.

    ``mode`` is ``"estimate"`` (stratified sample of ``sample_pairs``
    pairs, every flow run to maximality) or ``"exact"`` (the paper's
    lowest-degree corner at ``sample_fraction``, flows cut off at the
    running minimum, plus 48 uncut random pairs).
    """

    name: str
    why: str
    nodes: int
    mode: str
    sample_pairs: int = 0
    sample_fraction: float = 0.0
    kind: str = "snapshot"

    #: Routing-table size of the synthetic snapshots.
    contacts_per_node = 16
    #: Uncut random pairs of the exact analyzer's average pass (its default).
    average_pairs = 48

    def setup(self, seed: int, tmp: Path) -> dict:
        from repro import api

        path = tmp / "snapshot.json"
        api.synthetic_snapshot(
            self.nodes, contacts_per_node=self.contacts_per_node, seed=seed
        ).save(path)
        return {"path": path, "seed": seed}

    def call(self, inputs: dict) -> dict:
        from repro import api

        if self.mode == "estimate":
            report = api.analyze_snapshot(
                inputs["path"],
                connectivity="estimate",
                sample_pairs=self.sample_pairs,
                ci_level=0.95,
                seed=inputs["seed"],
            )
        else:
            report = api.analyze_snapshot(
                inputs["path"],
                connectivity="exact",
                sample_fraction=self.sample_fraction,
                seed=inputs["seed"],
            )
        return {"report": report, "phases": {}}

    def summarize(self, outputs: dict) -> dict:
        fields = outputs["report"].as_dict()
        analysis_s = fields.pop("elapsed_seconds")
        return {"identity": {"report": fields}, "analysis_s": analysis_s}

    def operations(self) -> int:
        return 1

    def check(self, summary: dict) -> List[Check]:
        report = summary["identity"]["report"]
        checks = [
            ("report covers the whole snapshot", report["vertex_count"] == self.nodes),
            ("snapshot is strongly connected", report["strongly_connected"] is True),
        ]
        if self.mode == "estimate":
            checks += [
                ("every sampled pair was evaluated",
                 report["pairs_sampled"] == self.sample_pairs
                 and report["avg_pairs_evaluated"] == self.sample_pairs),
                ("estimate lies inside its interval",
                 report["ci_low"] <= report["average_estimate"] <= report["ci_high"]),
                ("minimum bound does not exceed the average",
                 0 < report["minimum_bound"] <= report["average_estimate"]),
            ]
        else:
            checks += [
                ("corner pass evaluated flows", report["min_pairs_evaluated"] > 0),
                ("average pass evaluated its pairs",
                 report["avg_pairs_evaluated"] == self.average_pairs),
                ("minimum does not exceed the average",
                 0 < report["minimum"] <= report["average"]),
            ]
        return checks


WORKLOADS = (
    CampaignWorkload(
        name="table2_tiny",
        why="Cold Table 2 (scenarios E-H x k, 16 simulations, serial): the simulator "
            "and Kademlia dominate, the flow kernel does little.",
        scenarios=("E", "F", "G", "H"),
        profile="tiny",
        seeds=1,
        jobs=1,
        warm_passes=0,
        render_table2=True,
    ),
    SnapshotWorkload(
        name="estimate_2500",
        why="Estimate mode on a 2500-node snapshot: every flow runs to maximality, "
            "so only the max-flow kernel matters; simulator and campaign are bypassed.",
        nodes=2500,
        mode="estimate",
        sample_pairs=96,
    ),
    SnapshotWorkload(
        name="corner_1200",
        why="Paper's lowest-degree corner on 1200 nodes: flows cut off at the running "
            "minimum, so per-pair reset and level clears weigh most, not maximality.",
        nodes=1200,
        mode="exact",
        sample_fraction=0.015,
    ),
    CampaignWorkload(
        name="sweep_tiny_jobs2",
        why="48 tiny tasks on 2 workers with cache writes, then 20 warm passes of cache "
            "reads: the only workload where pool, dispatch, IPC and cache are visible.",
        scenarios=("A", "E"),
        profile="tiny",
        seeds=6,
        jobs=2,
        warm_passes=20,
        render_table2=False,
    ),
)

BY_NAME: Dict[str, object] = {workload.name: workload for workload in WORKLOADS}
