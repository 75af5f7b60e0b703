"""Perf trajectory benchmark for the campaign execution backend.

Measures **tasks/sec of a smoke-profile sweep** — the paper's production
workload is sweep throughput, not single-run speed — and writes
``benchmarks/output/BENCH_campaign.json`` so future scaling PRs have a
trend line for the experiment-dispatch layer, like
``BENCH_connectivity.json`` does for the pair-flow hot path and
``BENCH_simulator.json`` for the event loop.

Three configurations over the same sweep (a bucket-size sweep of
scenario A on the ``smoke`` profile):

``serial_inprocess``
    :class:`SerialExecutor`: every task in the calling process.  The
    best simple alternative, and the reference of the headline.

``persistent_pool``
    The default campaign: one :class:`TaskSession` pins a single
    4-worker pool for the whole sweep and every task is its own flight.
    The pool spin-up *is* included in the timing — it is paid once.

``persistent_pool_auto``
    The same pool with ``batch="auto"``: tasks packed into
    near-equal-cost worker batches, a few per worker.

A ``distributed`` section records the same sweep through a
loopback :class:`DistributedExecutor` fleet (coordinator + spawned
``repro worker`` TCP processes): not a speed contender on one machine —
frames, pickling and heartbeats price in the network seam — but the
trend line that keeps the wire overhead honest, and the digest assert
proves the backend is identity-free like every other configuration.

The headline pool configurations use the ``spawn`` start method: it is
the portable production default (the only method on Windows, the default
on macOS, and the direction CPython is moving on Linux — ``fork`` is
unsafe once threads exist) and the one where worker start-up is most
expensive.  Under ``fork`` workers inherit the parent's imported modules
nearly for free; a ``fork`` section is recorded alongside.  The start
method, like the flight geometry, is identity-free: the configurations
must agree on every trajectory digest (asserted below).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from benchmarks.conftest import BENCH_SEED, attach_obs_metrics, write_artefact
from repro.experiments.persistence import trajectory_digest
from repro.experiments.scenarios import get_scenario
from repro.runtime import (
    Campaign,
    DistributedExecutor,
    ExperimentTask,
    ParallelExecutor,
    SerialExecutor,
)

#: Swept bucket sizes: 20 smoke-profile tasks — enough that the one-time
#: pool spin-up of the persistent configuration amortises out (it is
#: included in its timing) while the whole benchmark stays under ~20s.
SWEEP_BUCKET_SIZES = (
    2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24, 28, 32, 36, 40,
)
#: Worker count of the pooled configurations (the ISSUE's reference run).
PARALLEL_JOBS = 4
#: Start method of the headline comparison (see module docstring).
START_METHOD = "spawn"


def sweep_tasks() -> List[ExperimentTask]:
    base = get_scenario("A")
    return [
        ExperimentTask.create(
            scenario=base.with_overrides(bucket_size=k),
            profile="smoke",
            seed=BENCH_SEED,
        )
        for k in SWEEP_BUCKET_SIZES
    ]


def _timed(fn) -> Dict[str, object]:
    started = time.perf_counter()
    results = fn()
    elapsed = time.perf_counter() - started
    return {
        "results": results,
        "seconds": round(elapsed, 6),
        "tasks_per_sec": round(len(results) / elapsed, 3),
    }


def run_serial(tasks: List[ExperimentTask]) -> Dict[str, object]:
    campaign = Campaign(executor=SerialExecutor())
    return _timed(lambda: campaign.run(tasks))


def run_persistent_pool(
    tasks: List[ExperimentTask], start_method: str, batch
) -> Dict[str, object]:
    def run() -> List:
        with Campaign(
            executor=ParallelExecutor(
                jobs=PARALLEL_JOBS, start_method=start_method
            ),
            batch=batch,
        ) as campaign:
            return campaign.run(tasks)

    return _timed(run)


def run_distributed(tasks: List[ExperimentTask]) -> Dict[str, object]:
    def run() -> List:
        with Campaign(
            executor=DistributedExecutor(workers=PARALLEL_JOBS),
            batch="auto",
        ) as campaign:
            return campaign.run(tasks)

    return _timed(run)


def _strip_results(record: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in record.items() if key != "results"}


def test_perf_campaign_trajectory(output_dir):
    tasks = sweep_tasks()

    serial = run_serial(tasks)
    reference_digests = [
        trajectory_digest(result) for result in serial["results"]
    ]

    pool_key = f"persistent_pool{PARALLEL_JOBS}"
    auto_key = f"{pool_key}_auto"
    configs: Dict[str, Dict[str, object]] = {"serial_inprocess": serial}
    fork_section: Dict[str, Dict[str, object]] = {}
    for method, section in ((START_METHOD, configs), ("fork", fork_section)):
        # "off" rather than None: the default flight geometry even under
        # REPRO_CAMPAIGN_BATCH.
        section[pool_key] = run_persistent_pool(tasks, method, "off")
        section[auto_key] = run_persistent_pool(tasks, method, "auto")

    distributed = run_distributed(tasks)

    # Flight geometry, pooling, the start method and the executor backend
    # are identity-free: every configuration must reproduce the serial
    # trajectories bit for bit, in submission order.
    for section in (configs, fork_section, {"distributed": distributed}):
        for name, record in section.items():
            digests = [
                trajectory_digest(result) for result in record["results"]
            ]
            assert digests == reference_digests, f"{name} diverged"

    def speedup(record, reference):
        return round(record["tasks_per_sec"] / reference["tasks_per_sec"], 3)

    headline = speedup(configs[pool_key], serial)
    document = {
        "schema": 2,
        "created_unix": round(time.time(), 3),
        "sweep": {
            "scenario": "A",
            "profile": "smoke",
            "seed": BENCH_SEED,
            "bucket_sizes": list(SWEEP_BUCKET_SIZES),
            "tasks": len(tasks),
        },
        "parallel_jobs": PARALLEL_JOBS,
        "start_method": START_METHOD,
        "configs": {
            name: _strip_results(record) for name, record in configs.items()
        },
        "fork_configs": {
            name: _strip_results(record)
            for name, record in fork_section.items()
        },
        "distributed": {
            "workers": PARALLEL_JOBS,
            "transport": "loopback TCP frames (spawned repro workers)",
            **_strip_results(distributed),
            "vs_persistent_pool_auto": speedup(distributed, configs[auto_key]),
        },
        "speedups": {
            f"{pool_key}_vs_serial": headline,
            f"{auto_key}_vs_serial": speedup(configs[auto_key], serial),
            f"{pool_key}_vs_serial_fork": speedup(
                fork_section[pool_key], serial
            ),
            f"{auto_key}_vs_serial_fork": speedup(
                fork_section[auto_key], serial
            ),
        },
        "headline": {
            "description": (
                f"tasks/sec of a {len(tasks)}-task smoke sweep, persistent "
                f"{PARALLEL_JOBS}-worker pool (one task per flight, "
                f"{START_METHOD} start method) vs serial in-process"
            ),
            "speedup": headline,
        },
        "results_bit_identical": True,
    }

    path = output_dir / "BENCH_campaign.json"
    path.write_text(
        json.dumps(attach_obs_metrics(document), indent=2) + "\n",
        encoding="utf-8",
    )

    lines = [f"{'config':<28} {'seconds':>10} {'tasks/sec':>10}"]
    for name, record in configs.items():
        lines.append(
            f"{name:<28} {record['seconds']:>10} {record['tasks_per_sec']:>10}"
        )
    for name, record in fork_section.items():
        lines.append(
            f"{name + ' (fork)':<28} {record['seconds']:>10} "
            f"{record['tasks_per_sec']:>10}"
        )
    lines.append(
        f"{'distributed' + str(PARALLEL_JOBS):<28} "
        f"{distributed['seconds']:>10} {distributed['tasks_per_sec']:>10}"
    )
    lines.append(
        f"headline speedup ({pool_key} vs serial_inprocess, "
        f"{START_METHOD}): {headline}x"
    )
    write_artefact(output_dir, "BENCH_campaign.txt", "\n".join(lines))
