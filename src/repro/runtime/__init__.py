"""Experiment execution runtime.

The paper's evaluation is a large grid of *independent* simulation runs —
scenarios A–L crossed with bucket-size, alpha, staleness and loss sweeps,
each replicated over seeds.  This package turns that observation into an
execution harness:

* :mod:`repro.runtime.task` — :class:`ExperimentTask`, the fully specified
  unit of work (scenario, profile, seed, measurement), with a stable
  content-addressed key;
* :mod:`repro.runtime.executor` — :class:`SerialExecutor` and the
  process-pool backed :class:`ParallelExecutor`, which produce bit-identical
  results because every task carries its own random universe; each
  opens one kind of session (``map``, ``submit``, ``close``), which the
  campaign keeps for its whole life and on which it submits one task
  per worker call;
* :mod:`repro.runtime.pairflow` — :class:`PairFlowEngine`, the batched
  κ(s, t) evaluator of one snapshot: in-process, or on a session it
  borrows and never closes;
* :mod:`repro.runtime.cache` — :class:`ResultCache`, an on-disk
  content-addressed store of :class:`ExperimentResult` documents with
  hit/miss statistics and an on-demand LRU ``prune``;
* :mod:`repro.runtime.campaign` — :class:`Campaign`, the driver that
  expresses sweeps and replications as task batches and streams progress
  (with per-task results) while dispatching them through executor and
  cache in submission order;
* :mod:`repro.runtime.faults` — the deterministic fault-injection harness
  (``REPRO_FAULTS``): nth-occurrence matchers that crash workers, raise
  task errors and corrupt cache bytes, for chaos-testing the layers
  below without touching any result;
* :mod:`repro.runtime.resilience` — the self-healing primitives the
  campaign composes around the executor: :class:`RetryPolicy` (attempt
  and respawn budgets; a retry is re-queued at once), poison-task
  records, and the cooperative :class:`ShutdownGuard`.

Every higher layer (``repro.experiments.sweep``, ``repro.experiments
.replication``, the CLI and the benchmark harness) dispatches its runs
through this package.

The package re-exports nothing: import each name from its defining
module above (external callers use :mod:`repro.api`).  The snapshot
analysis needs only :mod:`~repro.runtime.pairflow` and
:mod:`~repro.runtime.executor` (the analyzer opens the ``--flow-jobs``
pool), and loads neither the campaign nor the cache.
"""
