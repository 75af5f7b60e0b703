"""The repository's benchmark: one command, every metric by name.

Two ways to run it, both from the root of a checkout:

``python3 bench/run.py --seed 42``
    The whole benchmark.  Workloads are interleaved round-robin for
    ``--rounds`` untraced rounds (end-to-end metrics: median, quartiles
    and sample count per workload), then one traced round per workload
    gives the per-layer metrics and ``bench/out/trace-<workload>.json``.
    Outputs are checked against ``bench/expected/`` and against each
    other; any failed check makes the exit code 1.  The raw numbers go to
    ``bench/out/run-seed<seed>.json`` for ``bench/compare.py``.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One round of one workload — the form ``BENCHMARK.json`` declares.
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1``.

An untraced round repeats the workload's operation, each repeat on the
next instance of the seed and in a fresh interpreter, until ``--seconds``
are used up, and reports the median over the repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the benchmark as the package ``bench``
    # (see bench/worker.py), not its files as top-level modules.
    sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402
from bench.host import Calibrator, drift_ratio, is_steady, slowness, typical  # noqa: E402
from bench.trace import to_chrome  # noqa: E402
from bench.workloads import BY_NAME, WORKLOADS  # noqa: E402

BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
EXPECTED_DIR = BENCH_DIR / "expected"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: An operation that has not ended after this long counts as failed.
OPERATION_TIMEOUT_S = 150
#: Fewest operations an untraced round makes, whatever ``--seconds`` says.
MIN_OPERATIONS = 3


class Tally:
    """Operations and output checks attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(name)

    def operations(self, count: int, error: Optional[str]) -> None:
        """``count`` task executions/calls; all failed when ``error`` is set."""
        self.attempted += count
        if error is not None:
            self.failed += count
            self.reasons.append(error)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons

    @property
    def success_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted


def run_operation(workload, seed: int, instance: int, mode: str, tmp_root: Path, tally: Tally) -> Optional[dict]:
    """Run one operation in a fresh interpreter; None when it failed to finish."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        workload.name, str(seed), str(instance), mode, str(tmp_root),
    ]
    label = f"{workload.name} seed {seed} instance {instance} ({mode})"
    # Its own session, so that a timeout can stop the operation together
    # with the pool workers it started.
    child = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=OPERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        tally.operations(workload.operations(), f"{label}: no result after {OPERATION_TIMEOUT_S} s")
        return None
    if child.returncode != 0 or not output.strip():
        tally.operations(workload.operations(), f"{label}: exit code {child.returncode}")
        return None
    record = json.loads(output.strip().splitlines()[-1])
    if mode != "traced":
        tally.operations(workload.operations(), None)
    for name, ok in record["checks"]:
        tally.check(f"{label}: {name}", ok)
    return record


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
#: End-to-end metrics that are times, reported in seconds of the reference host.
TIME_METRICS = ("setup_s", "wall_s", "cpu_s")


class Round:
    """Operations of one round, with a host calibration before each and after the last."""

    def __init__(self, workload, seed: int, tmp_root: Path, calibrator: Calibrator) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp_root = tmp_root
        self.calibrator = calibrator
        self.tally = Tally()
        self.calibrations = [calibrator.measure()]

    def operation(self, instance: int, mode: str) -> Optional[dict]:
        record = run_operation(self.workload, self.seed, instance, mode, self.tmp_root, self.tally)
        self.calibrations.append(self.calibrator.measure())
        if record is not None:
            record["instance"] = instance
        return record

    def host_layers(self) -> Dict[str, float]:
        middle = typical(self.calibrations)
        return {
            "host.calib_cpu_s": middle["calib_cpu_s"],
            "host.calib_mem_s": middle["calib_mem_s"],
            "host.slowness": slowness(self.calibrations),
            "host.drift_ratio": drift_ratio(self.calibrations[0], self.calibrations[-1]),
        }


def untraced_round(workload, seed: int, seconds: float, tmp_root: Path, calibrator: Calibrator) -> dict:
    """Repeat the operation for ``seconds``; medians over the repeats.

    Times are divided by the round's host slowness (see bench/host.py).
    """
    started = time.perf_counter()
    this = Round(workload, seed, tmp_root, calibrator)
    records: List[dict] = []
    durations: List[float] = []
    instance = 0
    while True:
        operation_started = time.perf_counter()
        record = this.operation(instance, "plain")
        durations.append(time.perf_counter() - operation_started)
        if record is not None:
            records.append(record)
        instance += 1
        elapsed = time.perf_counter() - started
        if instance >= MIN_OPERATIONS and elapsed + stats.median(durations) > seconds:
            break
    host = this.host_layers()
    metrics: Dict[str, float] = {}
    if records:
        for name in TIME_METRICS:
            metrics[name] = (
                stats.median([record[name] for record in records]) / host["host.slowness"]
            )
        metrics["peak_rss_mb"] = stats.median([record["peak_rss_mb"] for record in records])
    metrics["success_ratio"] = this.tally.success_ratio
    return {
        "metrics": metrics,
        "tally": this.tally,
        "operations": len(records),
        "identities": {record["instance"]: record["identity"] for record in records},
        "host": host,
        "raw_wall_s": stats.median([record["wall_s"] for record in records]) if records else None,
    }


def to_reference(layers: Dict[str, float], units: Dict[str, str], host_slowness: float) -> Dict[str, float]:
    """Express measured times (and rates) in seconds of the reference host."""
    scale = {"s": 1.0 / host_slowness, "ms": 1.0 / host_slowness, "us": 1.0 / host_slowness,
             "1/s": host_slowness}
    return {name: value * scale.get(units.get(name), 1.0) for name, value in layers.items()}


def traced_round(workload, seed: int, tmp_root: Path, calibrator: Calibrator, spec: dict,
                 untraced_wall_s: Optional[float] = None) -> dict:
    """Per-layer metrics of instance 0: plain, obs and staged operations.

    The three operations compute the same input three ways and must
    agree.  ``untraced_wall_s`` (the median of the untraced rounds, when
    the caller has one) is the base of ``obs.overhead_ratio``; otherwise
    this round's own plain operation is.
    """
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    this = Round(workload, seed, tmp_root, calibrator)
    plain = this.operation(0, "plain")
    observed = this.operation(0, "obs")
    staged = this.operation(0, "traced")
    host = this.host_layers()
    if plain is None or observed is None or staged is None:
        return {"layers": host, "tally": this.tally}

    this.tally.check(f"{workload.name}: result under obs equals the plain result",
                     observed["identity"] == plain["identity"])
    this.tally.check(f"{workload.name}: staged replay reproduces the plain result",
                     staged["identity"] == plain["identity"])
    layers = dict(staged["layers"])
    layers["trace.replay_s"] = staged["replay_s"]
    if workload.kind == "campaign":
        layers.update(_campaign_layers(workload, plain))
        # The replay runs the tasks serially and uncached, so its base is
        # the time the untraced tasks themselves took, not the wall-clock
        # of a two-worker campaign.
        layers["trace.overhead_ratio"] = staged["replay_s"] / sum(plain["task_walls"])
    else:
        layers["trace.overhead_ratio"] = staged["replay_s"] / plain["wall_s"]
    if workload.kind == "campaign" or workload.mode == "exact":
        layers["core.analyzer.share"] = plain["analysis_s"] / plain["cpu_s"]
    layers = to_reference(layers, units, host["host.slowness"])
    layers["obs.overhead_ratio"] = observed["wall_s"] / (
        untraced_wall_s * host["host.slowness"] if untraced_wall_s else plain["wall_s"]
    )
    layers["host.wall_raw_s"] = plain["wall_s"]
    layers.update(host)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    counters = {
        name: value for name, value in observed["obs_counters"].items()
        if isinstance(value, (int, float))
    }
    trace_path = OUT_DIR / f"trace-{workload.name}.json"
    trace_path.write_text(
        json.dumps(to_chrome(workload.name, staged["spans"], counters)), encoding="utf-8"
    )
    return {"layers": layers, "tally": this.tally, "trace_path": trace_path}


def _campaign_layers(workload, plain: dict) -> Dict[str, float]:
    """``runtime.campaign.*`` and cache ratios from the plain operation's own stamps."""
    phases, walls, cache = plain["phases"], plain["task_walls"], plain["cache"]
    cold_s, warm_s = phases["runtime.campaign.cold_s"], phases["runtime.campaign.warm_s"]
    layers = {
        "runtime.campaign.run_s": cold_s + warm_s,
        "runtime.campaign.cold_s": cold_s,
        "runtime.campaign.warm_s": warm_s,
        "runtime.campaign.tasks_per_s": len(walls) / cold_s,
        "runtime.campaign.overhead_s": cold_s - sum(walls) / workload.jobs,
        "runtime.campaign.worker_busy_ratio": sum(walls) / (workload.jobs * cold_s),
        "runtime.campaign.task_s_p50": stats.percentile(walls, 50),
        "runtime.cache.hit_ratio": cache["hits"] / (cache["hits"] + cache["misses"]),
        "experiments.report.format_ms": phases["experiments.report.format_ms"],
    }
    # A 90th percentile of 16 task times is two samples; only the sweep
    # has enough tasks for one.
    if len(walls) >= 40:
        layers["runtime.campaign.task_s_p90"] = stats.percentile(walls, 90)
    return layers


def complete_layers(layers: Dict[str, float], spec: dict) -> Dict[str, float]:
    """Every per-layer metric of the spec; 0 for layers the workload never enters."""
    names = [metric["name"] for metric in spec["per_layer"]]
    unknown = sorted(set(layers) - set(names))
    if unknown:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {name: layers.get(name, 0.0) for name in names}


# ----------------------------------------------------------------------
# The form BENCHMARK.json declares: one round of one workload
# ----------------------------------------------------------------------
def contract_run(args: argparse.Namespace, spec: dict, tmp_root: Path) -> int:
    workload = BY_NAME[args.workload]
    if args.trace:
        outcome = traced_round(workload, args.seed, tmp_root, Calibrator(), spec)
        values = complete_layers(outcome["layers"], spec)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    else:
        outcome = untraced_round(workload, args.seed, args.seconds, tmp_root, Calibrator())
        values = outcome["metrics"]
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    tally = outcome["tally"]
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    complete = set(values) == set(units)
    print(json.dumps({
        "correct": tally.failed == 0 and complete,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if complete else 1


# ----------------------------------------------------------------------
# The whole benchmark
# ----------------------------------------------------------------------
def full_run(args: argparse.Namespace, spec: dict, tmp_root: Path) -> int:
    calibrator = Calibrator()
    end_to_end = spec["end_to_end"]
    samples: Dict[str, Dict[str, List[float]]] = {
        workload.name: {metric["name"]: [] for metric in end_to_end} for workload in WORKLOADS
    }
    identities: Dict[str, Dict[int, dict]] = {workload.name: {} for workload in WORKLOADS}
    tally = Tally()
    hosts: List[Dict[str, float]] = []

    print(f"benchmark seed {args.seed}: {args.rounds} rounds x {len(WORKLOADS)} workloads, "
          f"{args.seconds} s each, then one traced round per workload")
    print("times are in seconds of the reference host: measured time / host.slowness")
    for round_index in range(args.rounds):
        for workload in WORKLOADS:
            outcome = untraced_round(workload, args.seed, args.seconds, tmp_root, calibrator)
            tally.merge(outcome["tally"])
            hosts.append(outcome["host"])
            for name, value in outcome["metrics"].items():
                samples[workload.name][name].append(value)
            # The same seed gives the same instances in every round, so
            # their outputs must repeat exactly.
            for instance, identity in outcome["identities"].items():
                first = identities[workload.name].setdefault(instance, identity)
                tally.check(
                    f"{workload.name} instance {instance}: round {round_index + 1} repeats earlier rounds",
                    identity == first,
                )
            print(
                f"round {round_index + 1} {workload.name:<17}" + _host_line(hosts[-1])
                + f"  wall_s {outcome['metrics'].get('wall_s', float('nan')):.3f} s"
                f" (raw {outcome['raw_wall_s'] or float('nan'):.3f} s, {outcome['operations']} operations)",
                flush=True,
            )

    per_layer: Dict[str, Dict[str, float]] = {}
    for workload in WORKLOADS:
        walls = samples[workload.name]["wall_s"]
        outcome = traced_round(
            workload, args.seed, tmp_root, calibrator, spec,
            untraced_wall_s=stats.median(walls) if walls else None,
        )
        tally.merge(outcome["tally"])
        per_layer[workload.name] = complete_layers(outcome["layers"], spec)
        hosts.append({name: outcome["layers"][name] for name in hosts[0]})
        print(f"traced  {workload.name:<17}" + _host_line(hosts[-1])
              + f"  -> {outcome.get('trace_path', 'no trace: an operation failed')}", flush=True)

    # Each round's walk time is already a median over its calibrations.
    drift = hosts[-1]["host.calib_mem_s"] / hosts[0]["host.calib_mem_s"]
    steady = is_steady(drift)
    failed_ratio = tally.failed / tally.attempted
    _print_end_to_end(samples, end_to_end, failed_ratio)
    _print_per_layer(per_layer, spec["per_layer"])
    print(f"\nhost.drift_ratio {drift:.3f} (last / first round's host.calib_mem_s): "
          f"run is {'steady' if steady else 'UNSTEADY'}")
    print(f"failed_ratio {failed_ratio:.6f} ({tally.failed} of {tally.attempted} operations and checks)")
    for reason in tally.reasons:
        print(f"FAILED {reason}")

    document = {
        "seed": args.seed,
        "rounds": args.rounds,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "steady": steady,
        "host": {
            "drift_ratio": drift,
            **{
                name: stats.summarize([host[f"host.{name}"] for host in hosts])
                for name in ("calib_cpu_s", "calib_mem_s", "slowness")
            },
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "end_to_end": samples,
        "end_to_end_summary": {
            name: {metric: stats.summarize(values) for metric, values in metrics.items() if values}
            for name, metrics in samples.items()
        },
        "per_layer": per_layer,
    }
    out_path = Path(args.out) if args.out else OUT_DIR / f"run-seed{args.seed}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=1), encoding="utf-8")
    print(f"results written to {out_path}")
    return 1 if tally.failed else 0


def _host_line(host: Dict[str, float]) -> str:
    return (f" host.calib_cpu_s {host['host.calib_cpu_s']:.3f} s"
            f"  host.calib_mem_s {host['host.calib_mem_s']:.3f} s"
            f"  host.slowness {host['host.slowness']:.3f}")


def capture_expected(args: argparse.Namespace, tmp_root: Path) -> int:
    """Write ``bench/expected/<workload>.json`` from the program as it is now."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        path = EXPECTED_DIR / f"{workload.name}.json"
        path.unlink(missing_ok=True)  # or the operations would be checked against it
        tally = Tally()
        identities = []
        for instance in range(args.capture):
            record = run_operation(workload, args.seed, instance, "plain", tmp_root, tally)
            if record is None or tally.failed:
                print(f"not captured, {workload.name} fails its own checks: {tally.reasons}",
                      file=sys.stderr)
                return 1
            identities.append(record["identity"])
        path.write_text(
            json.dumps({"seed": args.seed, "instances": identities}, indent=1) + "\n",
            encoding="utf-8",
        )
        print(f"captured {args.capture} instances of {workload.name} into {path}")
    return 0


def _print_end_to_end(samples: dict, end_to_end: List[dict], failed_ratio: float) -> None:
    print("\nend-to-end metrics (untraced rounds): median [q1, q3] n, spread = (q3 - q1) / median")
    for workload in WORKLOADS:
        print(f"  {workload.name}")
        for metric in end_to_end:
            values = samples[workload.name][metric["name"]]
            if not values:
                print(f"    {metric['name']:<14} no successful operation")
                continue
            summary = stats.summarize(values)
            print(
                f"    {metric['name']:<14} {summary['median']:.4f} {metric['unit']:<6}"
                f" [{summary['q1']:.4f}, {summary['q3']:.4f}] n={summary['n']}"
                f"  spread {stats.spread(values):.3f}  bound {metric['bound']}"
            )
        print(f"    {'failed_ratio':<14} {failed_ratio:.6f} ratio  (whole run; must stay 0)")


def _print_per_layer(per_layer: dict, metrics: List[dict]) -> None:
    names = [workload.name for workload in WORKLOADS]
    print("\nper-layer metrics (traced round, instance 0; 0 = the workload never enters the layer)")
    print(f"  {'metric':<40}{'unit':<8}" + "".join(f"{name:>18}" for name in names))
    for metric in metrics:
        row = "".join(f"{per_layer[name][metric['name']]:>18.6g}" for name in names)
        print(f"  {metric['name']:<40}{metric['unit']:<8}{row}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one round of this workload and print one JSON line")
    parser.add_argument("--seconds", type=float, help="length of one untraced round "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=5,
                        help="untraced rounds per workload of the whole benchmark (at least 3)")
    parser.add_argument("--out", help="where the whole benchmark writes its numbers")
    parser.add_argument("--capture", type=int, metavar="N",
                        help="instead of measuring, rewrite bench/expected/ from the first N "
                        "instances of --seed (after a deliberate change of behaviour)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"bench/run.py: no program to measure under {ROOT}/src/repro", file=sys.stderr)
        return 2
    if args.rounds < 3:
        parser.error("--rounds must be at least 3")
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    tmp_root = OUT_DIR / "tmp" / f"run-{os.getpid()}"
    tmp_root.mkdir(parents=True, exist_ok=True)
    try:
        if args.capture:
            return capture_expected(args, tmp_root)
        if args.workload:
            return contract_run(args, spec, tmp_root)
        return full_run(args, spec, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
