"""``repro.obs`` — zero-cost-when-off metrics and virtual-time tracing.

The observability subsystem used by the runtime (campaign / executor /
cache / pair-flow), the simulator and the Kademlia layer.  Three design
rules govern everything in this package:

* **zero cost when off** — enablement is decided once (the ``REPRO_OBS``
  environment variable, or :func:`enable`); instrumented objects capture
  :func:`active` at construction and hold ``None`` when disabled, so hot
  paths pay one ``is not None`` check and allocate nothing;
* **identity-free by construction** — metrics never enter task
  fingerprints, never perturb RNG draws or event ordering, and never
  reach result persistence; the determinism digest suite passes
  byte-identically with ``REPRO_OBS=1`` (gated in CI);
* **process-local, merged upward** — each experiment run records into a
  fresh per-run registry (:func:`run_scope`); the snapshot rides on the
  (transient) ``ExperimentResult.obs_metrics`` field back to the
  campaign, which merges task snapshots into its own registry.

:func:`enable` also exports ``REPRO_OBS=1`` into the environment so
spawned worker processes observe their half of a parallel campaign.

Span-style tracing (JSONL, one record per task/shard/snapshot)
lives in :mod:`repro.obs.tracing` and is enabled independently through
``REPRO_OBS_TRACE=<path>``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = [
    "ENV_VAR",
    "Histogram",
    "MetricsRegistry",
    "active",
    "disable",
    "enable",
    "enabled",
    "run_scope",
]

#: Environment variable gating metrics collection (any value but ``""``
#: and ``"0"`` enables it).  Like every scheduling knob it is excluded
#: from task fingerprints — flipping it can never miss or split a cache.
ENV_VAR = "REPRO_OBS"


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip() not in ("", "0")


#: Root registry of this process (None = observability off).  Created at
#: import time when the environment enables it, so worker processes of a
#: parallel campaign come up instrumented without any extra plumbing.
_ROOT: Optional[MetricsRegistry] = MetricsRegistry() if _env_enabled() else None

#: Stack of per-run scopes pushed by :func:`run_scope`; the innermost one
#: is what instrumented constructors capture while a run is in flight.
_SCOPES: List[MetricsRegistry] = []

#: Whether :func:`enable` exported ``REPRO_OBS=1`` itself (so
#: :func:`disable` knows to remove it again).
_ENV_EXPORTED = False


def enabled() -> bool:
    """Whether metrics collection is on in this process."""
    return _ROOT is not None


def active() -> Optional[MetricsRegistry]:
    """The registry new instrumented objects should record into.

    ``None`` when observability is off — call sites store the result and
    guard every recording with ``is not None`` (the zero-cost-off
    contract).  Inside a :func:`run_scope` this is the per-run registry;
    otherwise the process root.
    """
    if _SCOPES:
        return _SCOPES[-1]
    return _ROOT


def enable() -> MetricsRegistry:
    """Turn metrics collection on and return the process root registry.

    Idempotent.  Also exports ``REPRO_OBS=1`` so worker processes
    spawned from here (campaign pools, pair-flow pools) come up
    instrumented; :func:`disable` removes the export again.
    """
    global _ROOT, _ENV_EXPORTED
    if _ROOT is None:
        _ROOT = MetricsRegistry()
    if not _env_enabled():
        os.environ[ENV_VAR] = "1"
        _ENV_EXPORTED = True
    return _ROOT


def disable() -> None:
    """Turn metrics collection off and drop every registry (tests/CLI)."""
    global _ROOT, _ENV_EXPORTED
    _ROOT = None
    _SCOPES.clear()
    if _ENV_EXPORTED:
        os.environ.pop(ENV_VAR, None)
        _ENV_EXPORTED = False


@contextmanager
def run_scope() -> Iterator[Optional[MetricsRegistry]]:
    """Scope one experiment run to a fresh registry (None when off).

    Everything constructed inside the scope — transport, protocols,
    pair-flow engines — captures the scoped registry through
    :func:`active`, so a warm worker that executes many tasks in one
    process yields cleanly separated per-task metrics.  The caller (the
    experiment runner) snapshots the yielded registry at the end of the
    run and attaches it to the result.
    """
    if active() is None:
        yield None
        return
    registry = MetricsRegistry()
    _SCOPES.append(registry)
    try:
        yield registry
    finally:
        _SCOPES.pop()
