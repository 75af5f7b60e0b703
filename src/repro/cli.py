"""Command-line interface.

Subcommands:

``run``
    Run one of the paper's scenarios (A–L) and print its summary and
    connectivity time series.

``sweep-k``
    Run a scenario once per bucket size and print the figure-style series
    (the k-sweep of Figures 2–9).

``table1`` / ``table2``
    Print the reproduced Table 1 (definitional) and Table 2 (from fresh
    Simulations E–H runs).

``analyze-snapshot``
    Analyze a routing-table snapshot JSON file: connectivity, resilience.

``export-dimacs``
    Convert a snapshot JSON file into the DIMACS max-flow format of its
    Even-transformed connectivity graph (the paper's HIPR input format).

``cache``
    Inspect (``cache info``), integrity-check (``cache verify`` —
    sha256 payload checksums, corrupt entries quarantined), empty
    (``cache clear``) or size-cap (``cache prune --max-bytes N``, LRU
    order) a result cache directory used by the run/sweep commands.

``obs``
    Observability: ``obs summary`` runs one scenario with
    :mod:`repro.obs` instrumentation enabled and prints the metrics
    summary (cache hit rate, worker utilisation, simulator events/sec,
    mean lookup virtual-time latency); ``--metrics-out``/``--trace-out``
    write the raw metrics JSON and the span-per-line JSONL trace.
    Instrumentation is identity-free — every simulation statistic stays
    bit-identical with it on or off.

Simulation commands accept ``--jobs N`` (process-pool execution across
experiment tasks), ``--flow-jobs N`` (process-pool execution of the
per-snapshot pair-flow batches *inside* a task) and ``--cache-dir DIR``
(content-addressed result reuse across invocations); all combinations
produce bit-identical output — placement knobs change only *when and
where* work runs, never what it computes.  Progress and cache
statistics go to stderr so stdout stays identical regardless of
parallelism or cache state.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, List, Optional

from repro import obs
from repro.obs import tracing
from repro.obs.summary import format_summary, write_metrics
from repro.experiments.profiles import PROFILES
from repro.experiments.report import (
    format_figure,
    format_summaries,
    format_table1,
    format_table2,
)
from repro.experiments.snapshot import RoutingTableSnapshot
from repro.graph.io.dimacs import write_dimacs
from repro.graph.transform.even_transform import even_transform
from repro.options import ExecutionOptions, MeasurementSpec
from repro.overlay import overlay_names
from repro.analysis.figures import render_series_table
from repro.runtime import faults

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache


def _positive_int(text: str) -> int:
    """argparse type for worker counts: an integer >= 1.

    Rejecting zero/negative values here turns what used to be a deep
    traceback (or a silent fallback to serial execution) into a one-line
    ``error: argument --jobs: ...`` message with exit code 2.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_measurement_options(parser: argparse.ArgumentParser) -> None:
    """``--flow-jobs`` and the estimate-mode flags shared by every command
    that analyzes snapshots; defaults come from :mod:`repro.options`."""
    parser.add_argument(
        "--flow-jobs", type=_positive_int, default=ExecutionOptions.flow_jobs,
        help=(
            "worker processes for the per-snapshot pair-flow engine "
            "(bit-identical output for any value; default: 1)"
        ),
    )
    parser.add_argument(
        "--connectivity", default=MeasurementSpec.connectivity,
        choices=["exact", "estimate"],
        help=(
            "per-snapshot connectivity measurement: 'exact' (the paper's "
            "pipeline, default) or 'estimate' (stratified sampled-pair "
            "estimation with confidence intervals — the only feasible "
            "mode beyond ~10^4 nodes).  Identity-bearing: estimated "
            "results live under their own fingerprint/cache dimension"
        ),
    )
    parser.add_argument(
        "--sample-pairs", type=_positive_int, default=None, metavar="N",
        help=(
            "estimate mode: ordered-pair budget per snapshot (default: "
            f"{MeasurementSpec.sample_pairs}); requires --connectivity "
            "estimate"
        ),
    )
    parser.add_argument(
        "--ci-level", type=float, default=None, metavar="LEVEL",
        help=(
            "estimate mode: two-sided confidence level in (0,1) for the "
            f"reported interval (default: {MeasurementSpec.ci_level}); "
            "requires --connectivity estimate"
        ),
    )


def _add_common_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="bench", choices=sorted(PROFILES),
        help="scale profile (default: bench; 'paper' uses the original sizes)",
    )
    parser.add_argument("--seed", type=int, default=42, help="root random seed")
    parser.add_argument(
        "--bucket-size", type=int, default=None,
        help="override the Kademlia bucket size k",
    )
    parser.add_argument(
        "--alpha", type=int, default=None, help="override the request parallelism"
    )
    parser.add_argument(
        "--staleness", type=int, default=None, help="override the staleness limit s"
    )
    parser.add_argument(
        "--loss", default=None, choices=["none", "low", "medium", "high"],
        help="override the message loss scenario",
    )
    parser.add_argument(
        "--protocol", default="kademlia", choices=overlay_names(),
        help=(
            "overlay protocol under test (default: kademlia); chord and "
            "pastry run the same churn/attack/loss scenarios through the "
            "protocol-agnostic resilience pipeline"
        ),
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=ExecutionOptions.jobs,
        help="number of worker processes (1 = run in-process; default: 1)",
    )
    _add_measurement_options(parser)
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory of the content-addressed result cache (default: off)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help=(
            "deterministic fault injection for the run (sets REPRO_FAULTS; "
            "clauses kind@n[,n...], e.g. 'worker-crash@2;task-error@1,3'); "
            "identity-free — the campaign heals the faults and "
            "results stay bit-identical to a fault-free run"
        ),
    )
    parser.add_argument(
        "--retries", type=_positive_int, default=None, metavar="N",
        help=(
            "max executions of a failing task before it is reported as a "
            "poison task (default: 3; 1 disables retries); a retry is "
            "re-queued at once, and like --jobs the budget is identity-free"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="stream per-run progress lines to stderr",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help=(
            "enable observability (like REPRO_OBS=1) and write the "
            "collected metrics as JSON to FILE; identity-free — results "
            "and cache entries are bit-identical with or without it"
        ),
    )


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    """Accept the scenario both positionally and as ``--scenario``."""
    parser.add_argument(
        "scenario_positional", nargs="?", default=None, metavar="scenario",
        help="scenario name, e.g. E",
    )
    parser.add_argument(
        "--scenario", dest="scenario_option", default=None,
        help="scenario name, e.g. E (alternative to the positional form)",
    )


def _scenario_name(args: argparse.Namespace) -> str:
    positional = args.scenario_positional
    option = args.scenario_option
    if positional is not None and option is not None and positional != option:
        print(
            f"error: conflicting scenarios {positional!r} (positional) and "
            f"{option!r} (--scenario)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    name = option or positional
    if name is None:
        print("error: a scenario is required (positional or --scenario)",
              file=sys.stderr)
        raise SystemExit(2)
    return name


def _make_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    from repro.runtime.cache import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else None


def _bucket_sizes(args: argparse.Namespace) -> List[int]:
    """``--k``, or the paper's bucket sizes when it is not given."""
    from repro.experiments.scenarios import PAPER_BUCKET_SIZES

    return args.k if args.k is not None else list(PAPER_BUCKET_SIZES)


def _execution(args: argparse.Namespace) -> ExecutionOptions:
    """The run commands' scheduling/placement flags as one value."""
    from repro.runtime.resilience import RetryPolicy

    return ExecutionOptions(
        jobs=args.jobs,
        flow_jobs=args.flow_jobs,
        retries=(
            None if args.retries is None
            else RetryPolicy(max_attempts=args.retries)
        ),
    )


@contextmanager
def _faults_scope(args: argparse.Namespace):
    """Export ``--faults`` as ``REPRO_FAULTS`` for the duration of a command.

    The environment variable is how the spec reaches worker processes;
    the cached plan is reset on entry and exit so occurrence counters
    start fresh for this command and never leak into a later ``main()``
    call of the same process (the CLI tests call it repeatedly).  A
    malformed spec fails here, as an argument error, instead of at the
    first injection site deep inside a worker.
    """
    spec = getattr(args, "faults", None)
    if not spec:
        yield
        return
    try:
        faults.FaultPlan.parse(spec)
    except faults.FaultSpecError as error:
        print(f"error: invalid --faults spec: {error}", file=sys.stderr)
        raise SystemExit(2)
    previous = os.environ.get(faults.ENV_VAR)
    os.environ[faults.ENV_VAR] = spec
    faults.reset()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(faults.ENV_VAR, None)
        else:
            os.environ[faults.ENV_VAR] = previous
        faults.reset()


def _make_progress(args: argparse.Namespace):
    if not args.progress:
        return None
    return lambda event: print(event.describe(), file=sys.stderr)


def _report_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is None:
        return
    cache.sync_persistent_stats()
    stats = cache.stats
    print(
        f"[cache] {stats.hits} hits, {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate) in {cache.directory}",
        file=sys.stderr,
    )


def _configure_logging(verbosity: int) -> None:
    """Route the ``repro`` logger hierarchy to stderr.

    ``-v`` lifts the threshold to INFO, ``-vv`` to DEBUG; the default
    WARNING keeps the cache/pool diagnostics (quarantined entries,
    cancelled batches) visible without any flag.  The handler is attached
    once per process (tests call ``main`` repeatedly) and writes to
    stderr so stdout stays bit-identical whatever the verbosity.
    """
    logger = logging.getLogger("repro")
    if not any(
        getattr(handler, "_repro_cli", False) for handler in logger.handlers
    ):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(levelname)s] %(name)s: %(message)s")
        )
        handler._repro_cli = True  # type: ignore[attr-defined]
        logger.addHandler(handler)
    if verbosity >= 2:
        logger.setLevel(logging.DEBUG)
    elif verbosity == 1:
        logger.setLevel(logging.INFO)
    else:
        logger.setLevel(logging.WARNING)


def _obs_setup(args: argparse.Namespace) -> bool:
    """Enable observability when ``--metrics-out`` asks for it.

    Returns whether *this call* enabled it (so the matching
    :func:`_obs_finish` disables it again, but never switches off an
    externally-requested ``REPRO_OBS=1``).
    """
    if getattr(args, "metrics_out", None) and not obs.enabled():
        obs.enable()
        return True
    return False


def _obs_finish(args: argparse.Namespace, enabled_here: bool) -> None:
    """Write ``--metrics-out`` (if requested) and undo :func:`_obs_setup`."""
    path = getattr(args, "metrics_out", None)
    if path:
        registry = obs.active()
        if registry is not None:
            write_metrics(path, registry.snapshot())
            print(f"[obs] wrote metrics to {path}", file=sys.stderr)
    if enabled_here:
        obs.disable()


def _apply_overrides(scenario, args):
    overrides = {}
    if args.bucket_size is not None:
        overrides["bucket_size"] = args.bucket_size
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.staleness is not None:
        overrides["staleness_limit"] = args.staleness
    if args.loss is not None:
        overrides["loss"] = args.loss
    # An explicit --protocol kademlia is the default, not an override: the
    # scenario keeps its plain name (and its pinned golden digests).
    if getattr(args, "protocol", "kademlia") != "kademlia":
        overrides["protocol"] = args.protocol
    return scenario.with_overrides(**overrides) if overrides else scenario


def _measurement(args: argparse.Namespace) -> MeasurementSpec:
    """The --connectivity/--sample-pairs/--ci-level (and, where the
    command has it, --algorithm) flags as one value.

    The sampling parameters are identity-bearing, so passing them without
    selecting estimate mode is a hard error rather than a silent no-op.
    """
    sampling = {
        name: getattr(args, name)
        for name in ("sample_pairs", "ci_level")
        if getattr(args, name) is not None
    }
    if args.connectivity != "estimate":
        if sampling:
            print("error: --sample-pairs/--ci-level require --connectivity "
                  "estimate", file=sys.stderr)
            raise SystemExit(2)
    elif not 0.0 < sampling.get("ci_level", MeasurementSpec.ci_level) < 1.0:
        print(f"error: --ci-level must be in (0, 1), got {sampling['ci_level']}",
              file=sys.stderr)
        raise SystemExit(2)
    return MeasurementSpec(
        algorithm=getattr(args, "algorithm", MeasurementSpec.algorithm),
        connectivity=args.connectivity,
        **sampling,
    )


def _scenario(args: argparse.Namespace):
    """The named scenario with the command's overrides applied."""
    from repro.experiments.scenarios import get_scenario

    return _apply_overrides(get_scenario(_scenario_name(args)), args)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import run_scenario

    scenario = _scenario(args)
    enabled_here = _obs_setup(args)
    cache = _make_cache(args)
    try:
        with _faults_scope(args):
            result = run_scenario(
                scenario, profile=args.profile, seed=args.seed,
                measurement=_measurement(args), execution=_execution(args),
                cache=cache, progress=_make_progress(args),
            )
        _report_cache_stats(cache)
    finally:
        _obs_finish(args, enabled_here)
    print(format_summaries([result]))
    print()
    rows = result.series.to_rows()
    print(render_series_table(
        [row["time"] for row in rows],
        {
            "Min": [row["min"] for row in rows],
            "Avg": [row["avg"] for row in rows],
            "Network size": [row["network_size"] for row in rows],
        },
    ))
    return 0


def _cmd_sweep_k(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import run_bucket_size_sweep

    scenario = _scenario(args)
    enabled_here = _obs_setup(args)
    cache = _make_cache(args)
    try:
        with _faults_scope(args):
            results = run_bucket_size_sweep(
                scenario, bucket_sizes=_bucket_sizes(args), profile=args.profile,
                seed=args.seed,
                measurement=_measurement(args), execution=_execution(args),
                cache=cache, progress=_make_progress(args),
            )
        _report_cache_stats(cache)
    finally:
        _obs_finish(args, enabled_here)
    print(format_figure(results, f"Scenario {scenario.name}: bucket-size sweep"))
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    print(format_table1())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import get_scenario
    from repro.runtime.campaign import sweep_tasks

    enabled_here = _obs_setup(args)
    cache = _make_cache(args)
    # One batch across all four scenarios so --jobs parallelises the whole
    # E-H x k grid through a single process pool.
    bases = [get_scenario(name) for name in ("E", "F", "G", "H")]
    if args.protocol != "kademlia":
        bases = [base.with_overrides(protocol=args.protocol) for base in bases]
    measurement, execution = _measurement(args), _execution(args)
    tasks = [
        task
        for base in bases
        for task in sweep_tasks(
            base,
            [{"bucket_size": k} for k in _bucket_sizes(args)],
            profile=args.profile, seed=args.seed,
            measurement=measurement, execution=execution,
        )
    ]
    try:
        with _faults_scope(args), execution.campaign(
            cache=cache, progress=_make_progress(args)
        ) as campaign:
            results = campaign.run(tasks)
        _report_cache_stats(cache)
    finally:
        _obs_finish(args, enabled_here)
    print(format_table2(results))
    return 0


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    """Run one scenario fully instrumented and print the metrics summary.

    Enables :mod:`repro.obs` for the run (regardless of ``REPRO_OBS``),
    optionally writes the JSONL trace (``--trace-out``) and the metrics
    JSON (``--metrics-out``), and prints the human-readable summary to
    stdout.  The simulation results themselves are bit-identical to an
    uninstrumented run and still populate ``--cache-dir`` normally.
    """
    from repro.experiments.sweep import run_scenario

    scenario = _scenario(args)
    was_enabled = obs.enabled()
    obs.enable()
    if args.trace_out:
        tracing.configure_tracer(args.trace_out)
    cache = _make_cache(args)
    try:
        with _faults_scope(args):
            run_scenario(
                scenario, profile=args.profile, seed=args.seed,
                measurement=_measurement(args), execution=_execution(args),
                cache=cache, progress=_make_progress(args),
            )
        _report_cache_stats(cache)
        registry = obs.active()
        snapshot = registry.snapshot() if registry is not None else {}
        print(format_summary(snapshot))
        if args.metrics_out:
            write_metrics(args.metrics_out, snapshot)
            print(f"[obs] wrote metrics to {args.metrics_out}",
                  file=sys.stderr)
        if args.trace_out:
            print(f"[obs] wrote trace to {args.trace_out}", file=sys.stderr)
    finally:
        if args.trace_out:
            tracing.reset_tracer()
        if not was_enabled:
            obs.disable()
    return 0


def _cmd_cache_info(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    info = cache.info()
    exists = cache.directory.is_dir()
    print(f"cache directory: {info.path}" + ("" if exists else " (does not exist)"))
    print(f"entries:         {info.entries}")
    print(f"total bytes:     {info.total_bytes}")
    print(f"evictions:       {info.evictions}")
    print(f"corrupt entries: {info.corrupt_entries}")
    print(f"hits:            {info.hits}")
    print(f"misses:          {info.misses}")
    print(f"hit rate:        {info.hit_rate:.0%}")
    print(f"bytes served:    {info.bytes_served}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if not cache.directory.is_dir():
        print(
            f"error: cache directory {args.cache_dir} does not exist; "
            "nothing to verify",
            file=sys.stderr,
        )
        raise SystemExit(2)
    report = cache.verify(repair=not args.no_repair)
    print(f"cache directory: {report.path}")
    print(f"entries checked: {report.checked}")
    print(f"ok:              {report.ok}")
    print(f"corrupt:         {report.corrupt}")
    if report.quarantined:
        print(f"quarantined:     {len(report.quarantined)}")
        for name in report.quarantined:
            print(f"  {name}")
    return 0 if report.clean else 1


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache

    removed = ResultCache(args.cache_dir).clear()
    print(f"removed {removed} cache entries from {args.cache_dir}")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from repro.runtime.cache import ResultCache

    if args.max_bytes < 0:
        print(f"error: --max-bytes must be >= 0, got {args.max_bytes}",
              file=sys.stderr)
        raise SystemExit(2)
    cache = ResultCache(args.cache_dir)
    if not cache.directory.is_dir():
        print(
            f"error: cache directory {args.cache_dir} does not exist; "
            "nothing to prune",
            file=sys.stderr,
        )
        raise SystemExit(2)
    evicted = cache.prune(max_bytes=args.max_bytes)
    info = cache.info()
    if evicted:
        print(
            f"evicted {evicted} least-recently-used entries from "
            f"{args.cache_dir} ({info.entries} entries, {info.total_bytes} "
            f"bytes remain; cap {args.max_bytes})"
        )
    else:
        print(
            f"nothing evicted: {args.cache_dir} already fits the cap "
            f"({info.entries} entries, {info.total_bytes} bytes "
            f"<= cap {args.max_bytes})"
        )
    return 0


def _cmd_analyze_snapshot(args: argparse.Namespace) -> int:
    measurement = _measurement(args)
    estimate_mode = measurement.connectivity == "estimate"
    if estimate_mode and (args.exact or args.sample_fraction is not None):
        flag = "--exact" if args.exact else "--sample-fraction"
        print(f"error: {flag} and --connectivity estimate are exclusive",
              file=sys.stderr)
        raise SystemExit(2)
    sample_fraction = 0.05 if args.sample_fraction is None else args.sample_fraction
    snapshot = RoutingTableSnapshot.load(args.snapshot)
    snapshot_time, network_size = snapshot.time, snapshot.network_size
    # The tables are read once, into the graph; the analysis holds only that.
    graph = snapshot.to_connectivity_graph()
    del snapshot
    with measurement.analyzer(
        args.seed,
        ExecutionOptions(flow_jobs=args.flow_jobs),
        source_fraction=None if args.exact else sample_fraction,
        target_fraction=sample_fraction,
    ) as analyzer:
        report = analyzer.analyze_graph(graph)
    print(f"snapshot time:        {snapshot_time}")
    print(f"network size:         {network_size}")
    print(f"minimum connectivity: {report.min_connectivity}")
    print(f"average connectivity: {report.avg_connectivity:.2f}")
    print(f"resilience r:         {report.resilience}")
    print(f"strongly connected:   {report.strongly_connected}")
    print(f"disconnected nodes:   {report.disconnected_count}")
    print(f"symmetry ratio:       {report.symmetry_ratio:.3f}")
    if estimate_mode:
        low, high = report.confidence_interval
        level = int(round(report.ci_level * 100))
        print(f"{level}% CI of average:   [{low:.2f}, {high:.2f}]")
        print(f"pairs sampled:        {report.pairs_sampled}")
        print(f"pairs pruned:         {report.pairs_pruned}")
        print(f"minimum is exact:     {report.min_is_exact}")
        if report.short_sample:
            print(
                f"warning: rejection sampling drew {report.pairs_sampled} of "
                f"{report.sample_pairs} pairs; the interval rests on fewer "
                f"pairs than asked for",
                file=sys.stderr,
            )
    return 0


def _cmd_export_dimacs(args: argparse.Namespace) -> int:
    snapshot = RoutingTableSnapshot.load(args.snapshot)
    graph = snapshot.to_connectivity_graph()
    transformed = even_transform(graph).graph
    write_dimacs(
        transformed,
        args.output,
        comment=f"Even-transformed connectivity graph, t={snapshot.time}",
    )
    print(
        f"wrote {transformed.number_of_vertices()} vertices / "
        f"{transformed.number_of_edges()} arcs to {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-kademlia",
        description="Kademlia connection-resilience reproduction toolkit",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help=(
            "increase diagnostic logging on stderr (-v: INFO with cache "
            "prunes and pool lifecycle, -vv: DEBUG); stdout is unaffected"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one scenario (A-L)")
    _add_scenario_argument(run_parser)
    _add_common_run_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser("sweep-k", help="bucket-size sweep of a scenario")
    _add_scenario_argument(sweep_parser)
    sweep_parser.add_argument(
        "--k", type=int, nargs="+", default=None,
        help="bucket sizes to sweep (default: the paper's bucket sizes)",
    )
    _add_common_run_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep_k)

    table1_parser = subparsers.add_parser("table1", help="print Table 1 (loss scenarios)")
    table1_parser.set_defaults(func=_cmd_table1)

    table2_parser = subparsers.add_parser(
        "table2", help="reproduce Table 2 (mean/RV of min connectivity)"
    )
    table2_parser.add_argument(
        "--k", type=int, nargs="+", default=None,
        help="bucket sizes to include (default: the paper's bucket sizes)",
    )
    _add_common_run_options(table2_parser)
    table2_parser.set_defaults(func=_cmd_table2)

    analyze_parser = subparsers.add_parser(
        "analyze-snapshot", help="analyze a routing-table snapshot JSON file"
    )
    analyze_parser.add_argument("snapshot", help="path to a snapshot JSON file")
    analyze_parser.add_argument(
        "--exact", action="store_true", help="exact (all-pairs) connectivity"
    )
    analyze_parser.add_argument(
        "--sample-fraction", type=float, default=None,
        help="source/target sampling fraction (default: 0.05; ignored with "
             "--exact; exact connectivity only)",
    )
    analyze_parser.add_argument(
        "--algorithm", default=MeasurementSpec.algorithm,
        choices=["dinic", "edmonds_karp", "push_relabel"],
        help="max-flow algorithm for the pair-flow engine (default: dinic)",
    )
    _add_measurement_options(analyze_parser)
    analyze_parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the pair-sampling stream (default: 0)",
    )
    analyze_parser.set_defaults(func=_cmd_analyze_snapshot)

    dimacs_parser = subparsers.add_parser(
        "export-dimacs",
        help="export a snapshot's Even-transformed graph in DIMACS format",
    )
    dimacs_parser.add_argument("snapshot", help="path to a snapshot JSON file")
    dimacs_parser.add_argument("output", help="output DIMACS file path")
    dimacs_parser.set_defaults(func=_cmd_export_dimacs)

    obs_parser = subparsers.add_parser(
        "obs", help="observability: metrics summaries of instrumented runs"
    )
    obs_subparsers = obs_parser.add_subparsers(dest="obs_command", required=True)
    obs_summary_parser = obs_subparsers.add_parser(
        "summary",
        help=(
            "run one scenario with REPRO_OBS-style instrumentation on and "
            "print the metrics summary (cache hit rate, worker "
            "utilisation, events/sec, lookup latency)"
        ),
    )
    _add_scenario_argument(obs_summary_parser)
    _add_common_run_options(obs_summary_parser)
    obs_summary_parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help=(
            "also write a span-per-line JSONL trace of the run "
            "(task/shard/snapshot records with parent ids) to FILE"
        ),
    )
    obs_summary_parser.set_defaults(func=_cmd_obs_summary)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear a result cache directory"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)

    cache_info_parser = cache_subparsers.add_parser(
        "info", help="print entry count and size of a cache directory"
    )
    cache_info_parser.add_argument(
        "--cache-dir", required=True, help="result cache directory"
    )
    cache_info_parser.set_defaults(func=_cmd_cache_info)

    cache_verify_parser = cache_subparsers.add_parser(
        "verify",
        help=(
            "verify the sha256 payload checksums of every cache entry; "
            "corrupt entries are quarantined (exit 1 when any are found)"
        ),
    )
    cache_verify_parser.add_argument(
        "--cache-dir", required=True, help="result cache directory"
    )
    cache_verify_parser.add_argument(
        "--no-repair", action="store_true",
        help="report corrupt entries without moving them to quarantine/",
    )
    cache_verify_parser.set_defaults(func=_cmd_cache_verify)

    cache_clear_parser = cache_subparsers.add_parser(
        "clear", help="remove every entry of a cache directory"
    )
    cache_clear_parser.add_argument(
        "--cache-dir", required=True, help="result cache directory"
    )
    cache_clear_parser.set_defaults(func=_cmd_cache_clear)

    cache_prune_parser = cache_subparsers.add_parser(
        "prune",
        help="evict least-recently-used entries until the cache fits a size cap",
    )
    cache_prune_parser.add_argument(
        "--cache-dir", required=True, help="result cache directory"
    )
    cache_prune_parser.add_argument(
        "--max-bytes", type=int, required=True,
        help="target size cap in bytes (0 empties the cache)",
    )
    cache_prune_parser.set_defaults(func=_cmd_cache_prune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
