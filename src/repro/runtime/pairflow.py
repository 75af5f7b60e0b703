"""Batched parallel pair-flow engine.

The paper's dominant cost is computing ``kappa(v, w)`` over many ordered
pairs per snapshot (the authors quote ~250 CPU-hours for one 2500-node
graph).  :class:`PairFlowEngine` turns that per-snapshot computation from a
serial Python loop into a sharded, cutoff-aware kernel:

* the connectivity graph is Even-transformed **once** into an
  integer-indexed :class:`~repro.graph.maxflow.residual.ResidualNetwork`,
  frozen into a picklable
  :class:`~repro.graph.maxflow.residual.CompactNetwork`, and shipped to
  every worker process exactly once through the executor session's
  initializer — no worker ever rebuilds the transformation per pair;
* the (source, target) pair list is split into fixed-size **shards**, and
  shards are dispatched in **waves**: every shard of a wave inherits the
  running minimum established by the waves before it as its flow cutoff,
  so later shards do strictly less max-flow work (the analyzer's
  minimum-pass trick, now parallel);
* shard boundaries, wave boundaries and the combination rules depend only
  on the engine parameters — never on the number of workers — so the
  engine's statistics are **bit-identical** whether shards run serially,
  on 2 workers or on 32 (asserted by ``tests/runtime/test_pairflow.py``).

The cutoff inherited by wave ``w + 1`` is exactly the minimum over all
values recorded in waves ``<= w``; within a shard the worker additionally
tightens its own local running minimum.  Both are upper bounds on the
global minimum, so the reported minimum stays exact while most flows are
cut off early (see ``network_flow_function`` for the cutoff contract).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.graph.digraph import DiGraph
from repro.graph.maxflow import network_flow_function
from repro.graph.maxflow.residual import (
    KERNEL_COUNTERS,
    CompactNetwork,
    ResidualNetwork,
)
from repro.graph.transform.even_transform import (
    IndexedEvenTransform,
    indexed_even_transform,
)
from repro.obs import active as obs_active
from repro.obs import tracing
from repro.runtime.executor import Executor, make_executor

Vertex = object

#: Pairs per shard.  One shard is the unit of work dispatched to a worker;
#: large enough that inter-process overhead amortises, small enough that a
#: wave spreads across workers.
DEFAULT_SHARD_SIZE = 24

#: Shards per wave.  Cutoffs propagate only *between* waves (shards of one
#: wave run concurrently), so a smaller width tightens cutoffs faster and a
#: larger width exposes more parallelism.  The width is a fixed engine
#: parameter — never derived from the worker count — because the statistics
#: must not depend on how many processes happen to be available.
DEFAULT_WAVE_WIDTH = 8


#: Distinguishes engine payloads when one worker pool serves several
#: engines over its lifetime (one engine per snapshot of a run).
_EPOCH_COUNTER = itertools.count(1)


@dataclass(frozen=True)
class PairFlowShard:
    """One picklable unit of pair-flow work.

    ``pairs`` holds dense flow-endpoint indices into the shipped compact
    network; ``cutoff`` is the running minimum inherited from earlier
    waves (``None`` on the first wave of an uncut evaluation).

    ``epoch`` names the network the pairs index into.  A worker caches the
    most recently thawed network per process; a shard arriving with an
    unknown epoch and ``compact is None`` is answered with a payload-miss
    sentinel and re-dispatched by the engine with the compact network
    attached.  This is what lets one process pool outlive any single
    engine: consecutive snapshots of a run reuse the pool and only the
    (small) compact network travels again.
    """

    pairs: Tuple[Tuple[int, int], ...]
    cutoff: Optional[int]
    use_cutoff: bool
    stop_at_zero: bool
    epoch: int = 0
    algorithm: str = "dinic"
    compact: Optional[CompactNetwork] = None


@dataclass(frozen=True)
class PairFlowOutcome:
    """Combined result of one batched evaluation.

    ``values[i]`` is the recorded connectivity of the ``i``-th *evaluated*
    pair in canonical order; with cutoffs enabled a recorded value is a
    lower bound capped at the running minimum that was in force when the
    pair ran (the minimum itself stays exact).  ``min_pair`` is the first
    evaluated pair (canonical order) whose recorded value equals the
    minimum.
    """

    values: List[int]
    pairs_evaluated: int
    minimum: Optional[int]
    min_pair: Optional[Tuple[Vertex, Vertex]]
    total: int

    @property
    def average(self) -> float:
        """Mean recorded value (0.0 when nothing was evaluated)."""
        if not self.pairs_evaluated:
            return 0.0
        return self.total / self.pairs_evaluated


def _run_shard_on(
    network: ResidualNetwork,
    flow_fn: Callable[..., float],
    shard: PairFlowShard,
) -> List[int]:
    """Evaluate one shard against ``network``.

    Returns the recorded values in shard-pair order; the list is shorter
    than ``shard.pairs`` only when ``stop_at_zero`` ended the shard early.
    """
    reset = network.reset
    values: List[int] = []
    append = values.append
    running = shard.cutoff
    use_cutoff = shard.use_cutoff
    for source_index, target_index in shard.pairs:
        cutoff = float(running) if (use_cutoff and running is not None) else None
        reset()
        value = int(round(flow_fn(network, source_index, target_index, cutoff)))
        append(value)
        if use_cutoff and (running is None or value < running):
            running = value
        if shard.stop_at_zero and value == 0:
            break
    return values


#: What one shard sends back: its recorded values and how much the kernel
#: counters (:data:`KERNEL_COUNTERS`) grew while it ran.
ShardResult = Tuple[List[int], Tuple[int, ...]]


def _run_shard_counted(
    network: ResidualNetwork,
    flow_fn: Callable[..., float],
    shard: PairFlowShard,
) -> ShardResult:
    """:func:`_run_shard_on` plus the kernel-counter deltas of the shard."""
    before = network.kernel_counters()
    values = _run_shard_on(network, flow_fn, shard)
    after = network.kernel_counters()
    return values, tuple(b - a for a, b in zip(before, after))


# ----------------------------------------------------------------------
# Worker side (parallel sessions only).  Each worker process caches the
# most recently thawed network, keyed by the shard epoch; the compact
# network is shipped with the first wave of an engine's work (and again
# on the rare payload miss, when a worker first sees an epoch in a later
# wave).  Serial engines never touch these globals — they evaluate shards
# directly against the engine's own network.
# ----------------------------------------------------------------------
_WORKER_EPOCH: int = 0
_WORKER_NETWORK: Optional[ResidualNetwork] = None
_WORKER_FLOW_FN: Optional[Callable[..., float]] = None

#: Returned by a worker that has not yet seen the shard's epoch and was
#: not sent the compact payload; the engine re-dispatches with it attached.
_PAYLOAD_MISS = None


def _execute_shard(shard: PairFlowShard) -> Optional[ShardResult]:
    """Worker-pool entry point: evaluate a shard on the process-local state."""
    global _WORKER_EPOCH, _WORKER_NETWORK, _WORKER_FLOW_FN
    if shard.epoch != _WORKER_EPOCH or _WORKER_NETWORK is None:
        if shard.compact is None:
            return _PAYLOAD_MISS
        _WORKER_NETWORK = shard.compact.thaw()
        _WORKER_FLOW_FN = network_flow_function(shard.algorithm)
        _WORKER_EPOCH = shard.epoch
    return _run_shard_counted(_WORKER_NETWORK, _WORKER_FLOW_FN, shard)


class PairFlowEngine:
    """Evaluates batches of ``kappa(v, w)`` queries on one connectivity graph.

    Parameters
    ----------
    graph:
        The connectivity graph ``D``.
    algorithm:
        Max-flow algorithm (``"dinic"``, ``"edmonds_karp"``,
        ``"push_relabel"``).
    flow_jobs:
        Worker processes for shard evaluation; ``1`` (default) runs every
        shard in-process through the same scheduling code path.
    shard_size / wave_width:
        Scheduling granularity (see module docstring).  Both shape which
        cutoff each pair sees, so the two sides of an equivalence check
        must share them — the defaults are used everywhere in practice.
    executor:
        Pre-built :class:`Executor` overriding ``flow_jobs``.
    session:
        External, caller-owned :class:`ExecutionSession` (worker pool).
        The engine borrows it for every evaluation and never closes it —
        this is how the analyzer reuses **one** pool across the engines of
        consecutive snapshots: only the compact network changes between
        snapshots (shipped under a fresh epoch), the processes persist.

    The engine may also be used as a context manager; inside a ``with``
    block one executor session (process pool) is pinned across all
    evaluations, which shares a pool between the minimum and average
    passes of one snapshot.
    """

    def __init__(
        self,
        graph: DiGraph,
        algorithm: str = "dinic",
        flow_jobs: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        wave_width: int = DEFAULT_WAVE_WIDTH,
        executor: Optional[Executor] = None,
        session=None,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if wave_width < 1:
            raise ValueError(f"wave_width must be >= 1, got {wave_width}")
        self._flow_fn = network_flow_function(algorithm)  # validates the name
        self.graph = graph
        self.algorithm = algorithm
        self.shard_size = shard_size
        self.wave_width = wave_width
        self.executor = executor or make_executor(flow_jobs)
        self.transform: IndexedEvenTransform = indexed_even_transform(graph)
        self._compact: Optional[CompactNetwork] = None
        self._epoch = next(_EPOCH_COUNTER)
        self._payload_shipped = False
        self._external_session = session
        self._session = None
        # ``None`` when observability is off; the per-pair kernel above is
        # untouched either way — counters are folded in once per
        # evaluation, after the waves have run.
        self._obs = obs_active()

    # ------------------------------------------------------------------
    def __enter__(self) -> "PairFlowEngine":
        if self._external_session is None:
            self._session = self._make_session()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        session, self._session = self._session, None
        if session is not None:
            session.close()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        pairs: Sequence[Tuple[Vertex, Vertex]],
        use_cutoff: bool = False,
        initial_minimum: Optional[int] = None,
        stop_at_zero: bool = False,
    ) -> PairFlowOutcome:
        """Evaluate ``kappa`` for every (non-adjacent) pair in ``pairs``.

        ``initial_minimum`` seeds the first wave's cutoff (e.g. with the
        degree bound); ``stop_at_zero`` stops scheduling new waves once a
        recorded value hits 0 (a shard also stops locally), mirroring the
        serial minimum pass's early exit at wave granularity.
        """
        pairs = list(pairs)
        if not pairs:
            return PairFlowOutcome(
                values=[], pairs_evaluated=0, minimum=None, min_pair=None, total=0
            )
        endpoint_indices = self.transform.flow_endpoint_indices
        indexed = [endpoint_indices(source, target) for source, target in pairs]
        shard_size = self.shard_size
        shards = [
            tuple(indexed[start:start + shard_size])
            for start in range(0, len(indexed), shard_size)
        ]

        values: List[int] = []
        evaluated_positions: List[int] = []
        running = initial_minimum
        wave_width = self.wave_width
        epoch = self._epoch
        algorithm = self.algorithm
        waves_dispatched = 0
        shards_dispatched = 0
        payload_misses = 0
        kernel_totals = [0] * len(KERNEL_COUNTERS)
        session, owns_session = self._acquire_session()
        span = tracing.span(
            "pairflow.evaluate", pairs=len(pairs), cutoff=use_cutoff
        )
        try:
            span.__enter__()
            serial = isinstance(session, _EngineLocalSession)
            for wave_start in range(0, len(shards), wave_width):
                if stop_at_zero and running == 0:
                    break
                # Ship the compact network with the engine's very first
                # wave so a cold pool thaws it without an extra round
                # trip; workers that first see this epoch later (or after
                # another engine's epoch displaced it) answer with a
                # payload miss and get the shards re-sent with payload.
                compact = None
                if not serial and not self._payload_shipped:
                    compact = self._compact_payload()
                    self._payload_shipped = True
                wave = shards[wave_start:wave_start + wave_width]
                waves_dispatched += 1
                shards_dispatched += len(wave)
                tasks = [
                    PairFlowShard(
                        pairs=shard,
                        cutoff=running,
                        use_cutoff=use_cutoff,
                        stop_at_zero=stop_at_zero,
                        epoch=epoch,
                        algorithm=algorithm,
                        compact=compact,
                    )
                    for shard in wave
                ]
                shard_results = session.map(_execute_shard, tasks)
                missed = [
                    index
                    for index, result in enumerate(shard_results)
                    if result is None
                ]
                if missed:
                    payload_misses += len(missed)
                    payload = self._compact_payload()
                    retries = [
                        replace(tasks[index], compact=payload)
                        for index in missed
                    ]
                    for index, result in zip(
                        missed, session.map(_execute_shard, retries)
                    ):
                        shard_results[index] = result
                for offset, (shard_values, counters) in enumerate(shard_results):
                    base = (wave_start + offset) * shard_size
                    for index, count in enumerate(counters):
                        kernel_totals[index] += count
                    values.extend(shard_values)
                    evaluated_positions.extend(
                        range(base, base + len(shard_values))
                    )
                    for value in shard_values:
                        if running is None or value < running:
                            running = value
        finally:
            span.__exit__(None, None, None)
            if owns_session:
                session.close()

        registry = self._obs
        if registry is not None:
            registry.inc("pairflow.evaluations")
            registry.inc("pairflow.pairs_submitted", len(pairs))
            registry.inc("pairflow.pairs_evaluated", len(values))
            # Pairs never evaluated because ``stop_at_zero`` (shard-local
            # or wave-level) ended the pass early — the cutoff machinery's
            # prune rate.
            registry.inc("pairflow.pairs_pruned", len(pairs) - len(values))
            registry.inc("pairflow.shards", shards_dispatched)
            registry.inc("pairflow.waves", waves_dispatched)
            registry.inc("pairflow.payload_misses", payload_misses)
            registry.observe("pairflow.shard_size", shard_size)
            if use_cutoff:
                registry.inc("pairflow.cutoff_pairs", len(values))
            # What the Dinic kernel did for those pairs (all zero for the
            # other solvers); the same totals serially and on a pool.
            for name, count in zip(KERNEL_COUNTERS, kernel_totals):
                registry.inc(f"maxflow.{name}", count)

        if not values:
            return PairFlowOutcome(
                values=[], pairs_evaluated=0, minimum=None, min_pair=None, total=0
            )
        minimum = min(values)
        min_pair = pairs[evaluated_positions[values.index(minimum)]]
        return PairFlowOutcome(
            values=values,
            pairs_evaluated=len(values),
            minimum=minimum,
            min_pair=min_pair,
            total=sum(values),
        )

    # ------------------------------------------------------------------
    def minimum_over(
        self,
        sources: Sequence[Vertex],
        targets: Sequence[Vertex],
        initial_minimum: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Minimum ``kappa`` over the non-adjacent pairs of ``sources x targets``.

        Returns ``(minimum, pairs evaluated)`` with cutoffs enabled and
        the pass stopped at the first 0.  ``initial_minimum`` seeds the
        cutoff (e.g. with the degree bound) and caps the result.  If no
        valid pair exists, falls back to ``initial_minimum`` (or the
        sources' degree bound when that is ``None``).
        """
        graph = self.graph
        has_edge = graph.has_edge
        pairs = [
            (source, target)
            for source in sources
            for target in targets
            if target != source and not has_edge(source, target)
        ]
        outcome = self.evaluate(
            pairs,
            use_cutoff=True,
            initial_minimum=initial_minimum,
            stop_at_zero=True,
        )
        if outcome.minimum is None:
            if initial_minimum is not None:
                return initial_minimum, 0
            bound = min(
                (graph.out_degree(v) for v in sources), default=0
            )
            return bound, 0
        minimum = outcome.minimum
        if initial_minimum is not None and initial_minimum < minimum:
            minimum = initial_minimum
        return minimum, outcome.pairs_evaluated

    def average_over(
        self, pairs: Sequence[Tuple[Vertex, Vertex]]
    ) -> Tuple[float, int]:
        """Mean exact ``kappa`` over ``pairs`` (no cutoffs).

        Returns ``(average, pairs evaluated)``; ``(0.0, 0)`` for an empty
        batch.
        """
        outcome = self.evaluate(pairs, use_cutoff=False)
        return outcome.average, outcome.pairs_evaluated

    # ------------------------------------------------------------------
    def _acquire_session(self):
        """Return ``(session, owns)`` — the session to evaluate on.

        Priority: the session pinned by ``with`` (borrowed), then the
        caller-provided external session (borrowed), then a fresh one the
        caller of this method must close (``owns=True``).
        """
        if self._session is not None:
            return self._session, False
        if self._external_session is not None:
            return self._external_session, False
        return self._make_session(), True

    def _make_session(self):
        """Open a fresh session of the right flavour for this executor.

        A :class:`SerialExecutor` evaluates shards directly against the
        engine's own network — no worker globals, no compact snapshot, so
        two serial engines can be open concurrently without interference.
        Parallel executors get a caller-owned pool session; the compact
        network travels with the first wave (and on payload misses).
        """
        from repro.runtime.executor import SerialExecutor

        if isinstance(self.executor, SerialExecutor):
            return _EngineLocalSession(self.transform.network, self._flow_fn)
        return self.executor.open_session()

    def _compact_payload(self) -> CompactNetwork:
        """Build (lazily) the picklable network payload shipped to workers."""
        if self._compact is None:
            self._compact = self.transform.compact()
        return self._compact


class _EngineLocalSession:
    """In-process session bound to one engine's network (serial path)."""

    def __init__(self, network: ResidualNetwork, flow_fn) -> None:
        self._network = network
        self._flow_fn = flow_fn

    def __enter__(self) -> "_EngineLocalSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def map(self, fn, shards) -> List[ShardResult]:
        # ``fn`` is always _execute_shard here; run its body against the
        # engine-local state instead of the worker-pool globals (epoch and
        # compact payload are irrelevant in-process).
        return [
            _run_shard_counted(self._network, self._flow_fn, shard)
            for shard in shards
        ]

    def close(self) -> None:
        """Nothing to release; the engine owns the network."""
