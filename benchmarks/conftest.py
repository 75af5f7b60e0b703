"""Shared infrastructure for the paper-reproduction harness.

Every module here regenerates one of the paper's tables, figures or
ablations and asserts its qualitative shape.  Simulations are expensive,
so they are dispatched through :class:`repro.runtime.campaign.Campaign`: an
in-process memo plus a persistent content-addressed
:class:`~repro.runtime.cache.ResultCache` under ``benchmarks/.result-cache``,
so repeated invocations of the same figure reuse finished runs instead of
re-simulating them.  Nothing here is timed; the repository measures its
speed in ``bench/`` only (``python3 bench/run.py``).

The harness runs on the ``smoke`` profile by default so the full suite
finishes in minutes; set ``REPRO_BENCH_PROFILE=bench`` to regenerate the
artefacts at the larger bench scale (each file records its profile in a
provenance header).  Other knobs:
``REPRO_BENCH_JOBS`` (worker processes), ``REPRO_BENCH_CACHE_DIR``
(alternative cache location, or ``off`` to disable caching entirely).

Each module writes its reproduced rows/series to the committed
``benchmarks/output/<artefact>.txt``.  At the default profile and seed those
files are byte-stable, so a run leaves the tree clean; a diff there means
a reproduced number moved.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional

import pytest

from repro.experiments.profiles import get_profile
from repro.experiments.runner import ExperimentResult
from repro.experiments.scenarios import Scenario
from repro.runtime.cache import ResultCache
from repro.runtime.campaign import Campaign
from repro.runtime.executor import make_executor
from repro.runtime.task import ExperimentTask

#: Root seed of every benchmark simulation (fixed for reproducibility).
SEED = 42
#: Scale profile used by the harness (see module docstring).
PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "smoke")
#: Directory that receives the reproduced tables/figures as text files.
OUTPUT_DIR = Path(__file__).parent / "output"
#: Persistent result cache shared by all benchmark runs.
DEFAULT_CACHE_DIR = Path(__file__).parent / ".result-cache"


def _configured_cache() -> Optional[ResultCache]:
    configured = os.environ.get("REPRO_BENCH_CACHE_DIR", "")
    if configured.lower() in ("off", "none", "0"):
        return None
    return ResultCache(configured or DEFAULT_CACHE_DIR)


class ScenarioCache:
    """Campaign-backed memo of scenario runs, keyed by the task content hash.

    Results live in two layers: a per-session dictionary (so one pytest
    session never loads the same result twice) and the persistent
    :class:`ResultCache` shared across sessions.
    """

    def __init__(self, profile_name: str = PROFILE, seed: int = SEED) -> None:
        self.profile = get_profile(profile_name)
        self.seed = seed
        self.campaign = Campaign(
            executor=make_executor(int(os.environ.get("REPRO_BENCH_JOBS", "1"))),
            cache=_configured_cache(),
        )
        self._results: Dict[str, ExperimentResult] = {}

    def run(self, scenario: Scenario) -> ExperimentResult:
        """Run ``scenario`` (or return the cached result of an earlier run)."""
        task = ExperimentTask.create(
            scenario=scenario,
            profile=self.profile,
            seed=self.seed,
            keep_snapshots=True,
        )
        key = task.key()
        if key not in self._results:
            self._results[key] = self.campaign.run_one(task)
        return self._results[key]

    def close(self) -> None:
        """Release the campaign's persistent worker session, if any.

        Relevant when ``REPRO_BENCH_JOBS`` is above 1: the campaign then
        owns a pinned worker pool from its first fresh run until here.
        """
        self.campaign.close()


@pytest.fixture(scope="session")
def scenario_cache():
    """Session-scoped cache of scenario runs shared by all benchmarks."""
    cache = ScenarioCache()
    yield cache
    cache.close()


@pytest.fixture(scope="session")
def output_dir() -> Path:
    """Directory for the reproduced tables/figures."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_artefact(output_dir: Path, name: str, content: str) -> None:
    """Write a reproduced table/figure to the output directory and echo it.

    A provenance line records which profile/seed produced the numbers, so
    smoke-scale artefacts can never be mistaken for bench-scale ones.
    """
    path = output_dir / name
    provenance = f"[profile: {PROFILE}, seed: {SEED}]"
    path.write_text(f"{provenance}\n{content}\n", encoding="utf-8")
    print(f"\n[reproduced -> {path}]\n{content}")

