"""Tests for the stable ``repro.api`` facade.

Three contracts:

* every name in ``repro.api.__all__`` resolves (the import surface is
  real, not aspirational);
* the facade's entry points work end to end without touching internal
  modules;
* ``examples/`` imports **only** ``repro.api`` from this project — the
  facade is the single supported import surface for downstream code,
  and the examples are its reference consumers.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import pytest

import repro.api as api

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestImportSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.__all__ lists missing {name!r}"

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_star_import_is_clean(self):
        namespace = {}
        exec("from repro.api import *", namespace)
        for name in api.__all__:
            assert name in namespace


class TestExamplesUseOnlyTheFacade:
    @pytest.mark.parametrize(
        "example", sorted(EXAMPLES_DIR.glob("*.py")), ids=lambda p: p.name
    )
    def test_example_imports_only_repro_api(self, example):
        tree = ast.parse(example.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    assert root != "repro" or alias.name == "repro.api", (
                        f"{example.name} imports {alias.name}; examples must "
                        "import repro.api only"
                    )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "repro":
                    assert module == "repro.api", (
                        f"{example.name} imports from {module}; examples must "
                        "import from repro.api only"
                    )


class TestEntryPoints:
    @pytest.fixture(scope="class")
    def snapshot(self):
        return api.synthetic_snapshot(64, contacts_per_node=8, seed=1)

    def test_synthetic_snapshot_shape(self, snapshot):
        assert isinstance(snapshot, api.RoutingTableSnapshot)
        assert len(snapshot.routing_tables) == 64
        assert all(
            len(contacts) <= 8 for contacts in snapshot.routing_tables.values()
        )

    def test_analyze_snapshot_exact(self, snapshot):
        report = api.analyze_snapshot(snapshot)
        assert report.is_exact
        assert report.confidence_interval is None
        assert report.min_connectivity >= 0

    def test_analyze_snapshot_estimate(self, snapshot):
        report = api.analyze_snapshot(
            snapshot, connectivity="estimate", sample_pairs=32, seed=3
        )
        assert not report.is_exact
        low, high = report.confidence_interval
        assert low <= report.avg_connectivity <= high

    def test_analyze_snapshot_from_a_path_drops_the_tables(self, tmp_path):
        path = tmp_path / "snapshot.json"
        api.synthetic_snapshot(2000, contacts_per_node=16, seed=1).save(path)
        options = dict(connectivity="estimate", sample_pairs=16, seed=1)

        def traced_peak(call):
            gc.collect()
            tracemalloc.start()
            try:
                report = call()
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def held_call():
            snapshot = api.RoutingTableSnapshot.load(path)  # held through the call
            return api.analyze_snapshot(snapshot, **options)

        from_path, path_peak = traced_peak(lambda: api.analyze_snapshot(path, **options))
        from_held, held_peak = traced_peak(held_call)
        assert dict(from_path.as_dict(), elapsed_seconds=0) == \
            dict(from_held.as_dict(), elapsed_seconds=0)
        # The 2000 tables are ~440 KB of a ~8 MB peak (ratio 0.945 on
        # Python 3.10-3.12); holding them through the analysis gives 1.0.
        assert path_peak < 0.97 * held_peak

    def test_estimate_connectivity_accepts_raw_tables(self, snapshot):
        from_tables = api.estimate_connectivity(
            snapshot.routing_tables, sample_pairs=32, seed=3
        )
        from_snapshot = api.estimate_connectivity(snapshot, sample_pairs=32, seed=3)
        assert from_tables.minimum_bound == from_snapshot.minimum_bound
        assert from_tables.average_estimate == from_snapshot.average_estimate

    def test_run_scenario_smoke(self):
        result = api.run_scenario("A", profile="tiny", seed=42)
        assert isinstance(result, api.ExperimentResult)
        assert result.series.samples

    def test_run_scenario_estimate_mode(self):
        result = api.run_scenario(
            "A", profile="tiny", seed=42,
            connectivity="estimate", sample_pairs=32,
        )
        report = result.series.samples[-1].report
        assert isinstance(report, api.EstimatedConnectivityReport)

    def test_run_sweep_smoke(self):
        results = api.run_sweep(
            "A", [{"bucket_size": 3}, {"bucket_size": 5}],
            profile="tiny", seed=42,
        )
        assert len(results) == 2
        assert [r.scenario.bucket_size for r in results] == [3, 5]

    def test_open_campaign(self, tmp_path):
        campaign = api.open_campaign(cache_dir=tmp_path / "cache")
        try:
            assert isinstance(campaign, api.Campaign)
        finally:
            campaign.close()

    def test_retired_backend_keywords_are_rejected(self, tmp_path):
        from repro.runtime.executor import make_executor

        with pytest.raises(TypeError):
            api.open_campaign(backend="local")
        with pytest.raises(TypeError):
            api.run_scenario("A", profile="tiny", backend="local")
        with pytest.raises(TypeError):
            make_executor(2, backend="local")
        with pytest.raises(TypeError):
            api.ResultCache(tmp_path / "cache", remote=None)

    def test_validate_exact_vs_estimate_via_facade(self, snapshot):
        from repro.core.connectivity_graph import build_connectivity_graph

        graph = build_connectivity_graph(snapshot.routing_tables)
        validation = api.validate_exact_vs_estimate(graph, sample_pairs=48, seed=2)
        assert validation.average_within_ci
        assert validation.minimum_bound_valid
